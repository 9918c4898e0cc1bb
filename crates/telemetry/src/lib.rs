//! The telemetry bus of the Sync-Switch reproduction: one dependency-free
//! crate shared by every layer of the PS tier — trainer loops, the wire
//! transport, the servers, and the cluster binaries.
//!
//! Three pieces, all cheap enough for the hot path:
//!
//! * [`MetricsRegistry`] — named atomic [`Counter`]s and fixed
//!   log2-bucket [`Histogram`]s. Instruments are acquired once
//!   (one lock + map insert) and then recorded lock-free; a
//!   [`MetricsSnapshot`] is a consistent-enough point-in-time read that
//!   serializes itself to JSON without any serde machinery.
//! * [`Tracer`] — a bounded ring buffer of typed [`TraceEvent`]s (step
//!   spans, barrier waits, push retries, sync rounds, server kills and
//!   heals, watchdog rollbacks, protocol switches) exportable as Chrome
//!   trace-event JSON, so a full chaos run can be opened in
//!   `chrome://tracing` (or <https://ui.perfetto.dev>).
//! * [`ServerStats`] / [`ServerStatsSnapshot`] — the server-side request
//!   accounting (per-opcode counts, payload bytes, seq-dedup hits,
//!   per-shard apply time) that the `Stats` wire frame ships to scrapers.
//!
//! The crate is deliberately free of dependencies (not even the workspace
//! shims): it sits under the per-step path of every worker thread, so its
//! dependency graph stays empty and its few JSON writers are hand-rolled.
//! The processes that link it (`ps-serve`, `ps-worker`) get serde from
//! their cluster spec, not from here.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------------
// JSON helpers (hand-rolled: no serde in this crate by design)
// ---------------------------------------------------------------------------

/// Appends `s` as a JSON string literal (quoted, escaped) to `out`.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `ns` nanoseconds as a JSON number of *microseconds* with
/// sub-microsecond precision — the unit Chrome trace events use.
fn push_micros(out: &mut String, ns: u64) {
    out.push_str(&format!("{}.{:03}", ns / 1_000, ns % 1_000));
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing event count. Lock-free; `Relaxed` ordering
/// throughout — telemetry publishes nothing through its own values.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds exactly `{0}`, bucket `i`
/// (1..=64) holds `[2^(i-1), 2^i - 1]` — together an exact partition of
/// `u64` (pinned by proptest in `tests/histograms.rs`).
pub const HIST_BUCKETS: usize = 65;

/// The bucket index a value lands in.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `[lower, upper]` bounds of bucket `i`.
///
/// # Panics
///
/// Panics if `i >= HIST_BUCKETS`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < HIST_BUCKETS, "bucket {i} out of range");
    if i == 0 {
        (0, 0)
    } else if i == 64 {
        (1 << 63, u64::MAX)
    } else {
        (1 << (i - 1), (1 << i) - 1)
    }
}

/// A fixed log2-bucket histogram of `u64` samples (durations in ns,
/// payload sizes in bytes). Recording is lock-free: one `fetch_add` per
/// bucket/count/sum plus a `fetch_max`; cheap enough to sit on the
/// server's per-request apply path.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy. Counters are read individually (`Relaxed`),
    /// so a snapshot taken under concurrent recording may be skewed by
    /// in-flight samples — fine for statistics, never for correctness.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Thread-local accumulation buffer for a [`Histogram`]: samples land in
/// plain fields (a handful of scalar ops, no shared cache lines), and
/// reach the shared atomic histogram only on [`flush_into`] — one batch of
/// `fetch_add`s per flush instead of four contended RMWs per sample.
///
/// This is what a per-step hot loop records into: with several worker
/// threads hammering the same histogram every few microseconds, the atomic
/// cache-line traffic of direct [`Histogram::record`] calls is measurable;
/// a local buffer flushed at loop exit is not.
///
/// [`flush_into`]: LocalHistogram::flush_into
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    count: u64,
    sum: u64,
    max: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl LocalHistogram {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample locally.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded since the last flush.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Adds the buffered samples to `h` and resets the buffer. A no-op
    /// when empty, so calling it unconditionally at loop exit is free.
    pub fn flush_into(&mut self, h: &Histogram) {
        if self.count == 0 {
            return;
        }
        for (slot, &n) in h.buckets.iter().zip(&self.buckets) {
            if n > 0 {
                slot.fetch_add(n, Ordering::Relaxed);
            }
        }
        h.count.fetch_add(self.count, Ordering::Relaxed);
        h.sum.fetch_add(self.sum, Ordering::Relaxed);
        h.max.fetch_max(self.max, Ordering::Relaxed);
        *self = Self::default();
    }
}

/// A plain (non-atomic) histogram state: what crosses the wire and what
/// merges across threads, servers, and processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all samples (wraps on overflow, like the atomic it mirrors).
    pub sum: u64,
    /// Largest recorded sample.
    pub max: u64,
    /// Per-bucket counts; always `HIST_BUCKETS` entries.
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Element-wise accumulate: after merging every per-thread snapshot
    /// into one, the result equals a single histogram that saw all samples
    /// (pinned by proptest).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.wrapping_add(*b);
        }
    }

    /// Mean sample value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Appends this snapshot as a JSON object. Buckets are emitted
    /// sparsely, keyed by the bucket's lower bound.
    fn write_json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.1},\"buckets\":{{",
            self.count,
            self.sum,
            self.max,
            self.mean()
        ));
        let mut first = true;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", bucket_bounds(i).0, n));
        }
        out.push_str("}}");
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named registry of instruments. Acquisition (`counter`/`histogram`)
/// takes a lock and interns the name; the returned `Arc`
/// handle is then recorded through lock-free, so hot paths acquire once
/// and keep the handle.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("metrics registry poisoned");
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("metrics registry poisoned");
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::default());
                map.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A plain copy of a registry's instruments, serializable to JSON without
/// serde. Snapshots of one layout can be summed with
/// [`MetricsSnapshot::merge`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → snapshot.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Accumulates `other` into `self`: counters add, same-name
    /// histograms merge bucket-wise, unknown names are inserted.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// The whole snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, v)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, k);
            out.push(':');
            v.write_json(&mut out);
        }
        out.push_str("}}");
        out
    }
}

// ---------------------------------------------------------------------------
// Event tracing
// ---------------------------------------------------------------------------

/// The typed events the tier emits. Spans carry a duration; the rest are
/// instants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceKind {
    /// One worker training step (pull → compute → push), a span.
    Step { worker: u64, step: u64 },
    /// Time a worker spent blocked on the BSP barrier or the SSP gate, a
    /// span.
    BarrierWait { worker: u64 },
    /// A wire request attempt failed and is being re-sent (instant).
    PushRetry { server: u64, attempt: u64 },
    /// Every server has now completed stage-2 round `round` (drains
    /// included), as their replies reported it (instant).
    SyncRound { round: u64 },
    /// A server was found replaced, so its old instance died (instant).
    ServerKill { server: u64 },
    /// A server was healed: its new instance was found (instant).
    ServerHeal { server: u64 },
    /// The controller's divergence rule rolled the tier back to the
    /// checkpoint taken at global step `to_step` (instant).
    WatchdogRollback { trips: u64, to_step: u64 },
    /// A protocol switch was executed (instant). `reason` names the
    /// decision that drove it — the adaptive controller's rollback rule or
    /// one of its scraped-signal predicates — so a trace reader
    /// can tell *why* the tier changed discipline, not just that it did.
    ProtocolSwitch {
        from: String,
        to: String,
        reason: String,
    },
}

impl TraceKind {
    /// Stable event name (used in the Chrome export and in assertions).
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Step { .. } => "step",
            TraceKind::BarrierWait { .. } => "barrier_wait",
            TraceKind::PushRetry { .. } => "push_retry",
            TraceKind::SyncRound { .. } => "sync_round",
            TraceKind::ServerKill { .. } => "server_kill",
            TraceKind::ServerHeal { .. } => "server_heal",
            TraceKind::WatchdogRollback { .. } => "watchdog_rollback",
            TraceKind::ProtocolSwitch { .. } => "protocol_switch",
        }
    }

    /// Chrome trace category.
    fn cat(&self) -> &'static str {
        match self {
            TraceKind::Step { .. } | TraceKind::BarrierWait { .. } => "worker",
            TraceKind::PushRetry { .. } | TraceKind::SyncRound { .. } => "wire",
            TraceKind::ServerKill { .. } | TraceKind::ServerHeal { .. } => "fault",
            TraceKind::WatchdogRollback { .. } | TraceKind::ProtocolSwitch { .. } => "control",
        }
    }

    /// Chrome thread lane: workers on their worker id, fault events on the
    /// server id, control-plane events on lane 0.
    fn tid(&self) -> u64 {
        match *self {
            TraceKind::Step { worker, .. } | TraceKind::BarrierWait { worker } => worker,
            TraceKind::ServerKill { server } | TraceKind::ServerHeal { server } => server,
            TraceKind::PushRetry { server, .. } => server,
            _ => 0,
        }
    }

    /// Appends the event's `args` object.
    fn write_args(&self, out: &mut String) {
        match self {
            TraceKind::Step { worker, step } => {
                out.push_str(&format!("{{\"worker\":{worker},\"step\":{step}}}"));
            }
            TraceKind::BarrierWait { worker } => {
                out.push_str(&format!("{{\"worker\":{worker}}}"));
            }
            TraceKind::PushRetry { server, attempt } => {
                out.push_str(&format!("{{\"server\":{server},\"attempt\":{attempt}}}"));
            }
            TraceKind::SyncRound { round } => {
                out.push_str(&format!("{{\"round\":{round}}}"));
            }
            TraceKind::ServerKill { server } | TraceKind::ServerHeal { server } => {
                out.push_str(&format!("{{\"server\":{server}}}"));
            }
            TraceKind::WatchdogRollback { trips, to_step } => {
                out.push_str(&format!("{{\"trips\":{trips},\"to_step\":{to_step}}}"));
            }
            TraceKind::ProtocolSwitch { from, to, reason } => {
                out.push_str("{\"from\":");
                push_json_str(out, from);
                out.push_str(",\"to\":");
                push_json_str(out, to);
                out.push_str(",\"reason\":");
                push_json_str(out, reason);
                out.push('}');
            }
        }
    }
}

/// One recorded event: a kind plus its time window relative to the
/// tracer's epoch. `dur_ns == 0` renders as a Chrome instant event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub kind: TraceKind,
    /// Start offset from the tracer's epoch, nanoseconds.
    pub start_ns: u64,
    /// Span length in nanoseconds; 0 for instants.
    pub dur_ns: u64,
}

#[derive(Debug, Default)]
struct TraceRing {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded ring buffer of [`TraceEvent`]s. When full, the oldest event
/// is evicted (and counted), so a long run keeps its most recent window —
/// the part a post-mortem wants — at a hard memory cap.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<TraceRing>,
}

/// Default event capacity (~64Ki events ≈ a few MB).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl Tracer {
    /// A tracer holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            capacity: capacity.max(1),
            ring: Mutex::new(TraceRing::default()),
        }
    }

    /// Nanoseconds since this tracer's epoch — the timestamp base every
    /// event uses. Take it *before* the work when recording a span.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records an instantaneous event stamped now.
    pub fn instant(&self, kind: TraceKind) {
        let now = self.now_ns();
        self.record(kind, now, 0);
    }

    /// Records a span that started at `start_ns` (from [`Self::now_ns`])
    /// and ends now.
    pub fn span(&self, kind: TraceKind, start_ns: u64) {
        let dur = self.now_ns().saturating_sub(start_ns);
        self.record(kind, start_ns, dur.max(1));
    }

    /// Records a fully specified event.
    pub fn record(&self, kind: TraceKind, start_ns: u64, dur_ns: u64) {
        let mut ring = self.ring.lock().expect("tracer poisoned");
        if ring.events.len() >= self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(TraceEvent {
            kind,
            start_ns,
            dur_ns,
        });
    }

    /// Drains `events` into the ring under one lock — the flush half of a
    /// thread-local event buffer. A hot loop pushes onto a plain `Vec` and
    /// flushes periodically, paying the ring mutex once per batch instead
    /// of once per event.
    pub fn record_batch(&self, events: &mut Vec<TraceEvent>) {
        if events.is_empty() {
            return;
        }
        let mut ring = self.ring.lock().expect("tracer poisoned");
        for e in events.drain(..) {
            if ring.events.len() >= self.capacity {
                ring.events.pop_front();
                ring.dropped += 1;
            }
            ring.events.push_back(e);
        }
    }

    /// Copies out the retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .expect("tracer poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("tracer poisoned").dropped
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("tracer poisoned").events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retained event counts keyed by [`TraceKind::name`] — what the chaos
    /// gate asserts coverage on.
    pub fn counts_by_name(&self) -> BTreeMap<&'static str, u64> {
        let ring = self.ring.lock().expect("tracer poisoned");
        let mut out = BTreeMap::new();
        for e in &ring.events {
            *out.entry(e.kind.name()).or_insert(0) += 1;
        }
        out
    }

    /// The retained window as a Chrome trace-event JSON document
    /// (`{"traceEvents": [...]}`), loadable in `chrome://tracing` or
    /// Perfetto. Spans render as complete (`"ph":"X"`) events, instants as
    /// `"ph":"i"`; `pid` distinguishes processes when a cluster's traces
    /// are merged.
    pub fn chrome_trace_json(&self, pid: u64) -> String {
        let ring = self.ring.lock().expect("tracer poisoned");
        let mut out = String::with_capacity(64 + ring.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in ring.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            out.push_str(e.kind.name());
            out.push_str("\",\"cat\":\"");
            out.push_str(e.kind.cat());
            out.push_str("\",\"ph\":\"");
            out.push_str(if e.dur_ns > 0 { "X" } else { "i" });
            out.push_str("\",\"ts\":");
            push_micros(&mut out, e.start_ns);
            if e.dur_ns > 0 {
                out.push_str(",\"dur\":");
                push_micros(&mut out, e.dur_ns);
            } else {
                // Instant scope: process-wide.
                out.push_str(",\"s\":\"p\"");
            }
            out.push_str(&format!(",\"pid\":{pid},\"tid\":{}", e.kind.tid()));
            out.push_str(",\"args\":");
            e.kind.write_args(&mut out);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------------
// The bus
// ---------------------------------------------------------------------------

/// One process's telemetry: a metrics registry plus an event tracer,
/// shared by `Arc` across worker threads, the transport, and the control
/// plane. A `None` handle everywhere means telemetry is off and costs one
/// branch.
#[derive(Debug, Default)]
pub struct Telemetry {
    pub metrics: MetricsRegistry,
    pub trace: Tracer,
}

impl Telemetry {
    /// A bus with the default trace capacity.
    pub fn new() -> Self {
        Self::default()
    }
}

// ---------------------------------------------------------------------------
// Server-side stats (what the `Stats` wire frame carries)
// ---------------------------------------------------------------------------

/// Per-opcode slots tracked by [`ServerStats`]. Request opcodes are small
/// (`0x01..=0x0d` today); anything outside the range is clamped into the
/// last slot rather than dropped.
pub const OPCODE_SLOTS: usize = 32;

#[inline]
fn opcode_slot(opcode: u8) -> usize {
    (opcode as usize).min(OPCODE_SLOTS - 1)
}

/// The lock-free request accounting a `PsServer` keeps: per-opcode request
/// counts, request/reply payload bytes, sequenced-dedup cache hits, and
/// apply timing (a log2 histogram overall plus cumulative ns/count per
/// owned shard). Lives on the server, recorded by every connection
/// handler, snapshotted by the `Stats` wire frame.
#[derive(Debug)]
pub struct ServerStats {
    requests: [AtomicU64; OPCODE_SLOTS],
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    dedup_hits: AtomicU64,
    apply: Histogram,
    shard_apply_ns: Vec<AtomicU64>,
    shard_applies: Vec<AtomicU64>,
}

impl ServerStats {
    /// Accounting for a server owning `shards` local shards.
    pub fn new(shards: usize) -> Self {
        ServerStats {
            requests: std::array::from_fn(|_| AtomicU64::new(0)),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            apply: Histogram::default(),
            shard_apply_ns: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shard_applies: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one inbound request of `opcode` with `bytes` payload bytes.
    #[inline]
    pub fn record_request(&self, opcode: u8, bytes: usize) {
        self.requests[opcode_slot(opcode)].fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records `bytes` reply payload bytes.
    #[inline]
    pub fn record_reply(&self, bytes: usize) {
        self.bytes_out.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records a sequenced request answered from the dedup cache.
    #[inline]
    pub fn record_dedup_hit(&self) {
        self.dedup_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one gradient apply on local shard `shard` taking `ns`.
    #[inline]
    pub fn record_apply(&self, shard: usize, ns: u64) {
        self.apply.record(ns);
        if let Some(s) = self.shard_apply_ns.get(shard) {
            s.fetch_add(ns, Ordering::Relaxed);
        }
        if let Some(s) = self.shard_applies.get(shard) {
            s.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy, stamped with the server's id.
    pub fn snapshot(&self, server: u32) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            server,
            requests: self
                .requests
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            apply_ns: self.apply.snapshot(),
            shard_apply_ns: self
                .shard_apply_ns
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            shard_applies: self
                .shard_applies
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// The plain server-stats state the `Stats` wire frame round-trips.
/// Byte-exact codec pinned by proptest in the ps crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// The answering server's index.
    pub server: u32,
    /// Request count per opcode slot; always `OPCODE_SLOTS` entries,
    /// indexed by request opcode.
    pub requests: Vec<u64>,
    /// Cumulative inbound request payload bytes.
    pub bytes_in: u64,
    /// Cumulative outbound reply payload bytes.
    pub bytes_out: u64,
    /// Sequenced requests answered from the dedup cache (replayed acks).
    pub dedup_hits: u64,
    /// Apply-duration histogram (nanoseconds) over every gradient apply.
    pub apply_ns: HistogramSnapshot,
    /// Cumulative apply nanoseconds per owned (local) shard.
    pub shard_apply_ns: Vec<u64>,
    /// Apply count per owned (local) shard.
    pub shard_applies: Vec<u64>,
}

impl Default for ServerStatsSnapshot {
    fn default() -> Self {
        ServerStatsSnapshot {
            server: 0,
            requests: vec![0; OPCODE_SLOTS],
            bytes_in: 0,
            bytes_out: 0,
            dedup_hits: 0,
            apply_ns: HistogramSnapshot::default(),
            shard_apply_ns: Vec::new(),
            shard_applies: Vec::new(),
        }
    }
}

impl ServerStatsSnapshot {
    /// Total requests across every opcode.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().sum()
    }

    /// The count for one request opcode.
    pub fn requests_for(&self, opcode: u8) -> u64 {
        self.requests[opcode_slot(opcode)]
    }

    /// Accumulates `other` (another server, or a later scrape of the same
    /// one) into `self` for a cluster-wide rollup. Per-shard vectors are
    /// appended — different servers own disjoint shard slices.
    pub fn merge(&mut self, other: &ServerStatsSnapshot) {
        for (a, b) in self.requests.iter_mut().zip(&other.requests) {
            *a = a.wrapping_add(*b);
        }
        self.bytes_in = self.bytes_in.wrapping_add(other.bytes_in);
        self.bytes_out = self.bytes_out.wrapping_add(other.bytes_out);
        self.dedup_hits = self.dedup_hits.wrapping_add(other.dedup_hits);
        self.apply_ns.merge(&other.apply_ns);
        self.shard_apply_ns.extend_from_slice(&other.shard_apply_ns);
        self.shard_applies.extend_from_slice(&other.shard_applies);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_round_trip_through_a_snapshot() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("worker.steps");
        c.inc();
        c.add(4);
        // Same name → same instrument.
        reg.counter("worker.steps").inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["worker.steps"], 6);
    }

    #[test]
    fn histogram_records_into_log2_buckets() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.buckets[0], 1, "zero bucket");
        assert_eq!(s.buckets[1], 1, "{{1}}");
        assert_eq!(s.buckets[2], 2, "[2,3]");
        assert_eq!(s.buckets[3], 1, "[4,7]");
        assert_eq!(s.buckets[10], 1, "[512,1023]");
        assert_eq!(s.buckets[11], 1, "[1024,2047]");
        assert_eq!(s.buckets[64], 1, "top bucket");
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let reg_a = MetricsRegistry::new();
        let reg_b = MetricsRegistry::new();
        reg_a.counter("x").add(2);
        reg_b.counter("x").add(3);
        reg_b.counter("only_b").inc();
        reg_a.histogram("h").record(5);
        reg_b.histogram("h").record(900);
        let mut merged = reg_a.snapshot();
        merged.merge(&reg_b.snapshot());
        assert_eq!(merged.counters["x"], 5);
        assert_eq!(merged.counters["only_b"], 1);
        assert_eq!(merged.histograms["h"].count, 2);
        assert_eq!(merged.histograms["h"].sum, 905);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let reg = MetricsRegistry::new();
        reg.counter("a\"b").inc();
        reg.histogram("h").record(3);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a\\\"b\":1"), "escaped key: {json}");
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn tracer_ring_is_bounded_and_counts_drops() {
        let t = Tracer::new(4);
        for step in 0..10 {
            t.instant(TraceKind::Step { worker: 0, step });
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 6);
        let events = t.events();
        // The *newest* window is retained.
        assert!(matches!(events[0].kind, TraceKind::Step { step: 6, .. }));
        assert!(matches!(events[3].kind, TraceKind::Step { step: 9, .. }));
    }

    #[test]
    fn spans_measure_nonzero_durations() {
        let t = Tracer::default();
        let t0 = t.now_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.span(TraceKind::BarrierWait { worker: 3 }, t0);
        let e = &t.events()[0];
        assert!(e.dur_ns >= 1_000_000, "slept 2ms, recorded {}", e.dur_ns);
        assert_eq!(e.kind.name(), "barrier_wait");
    }

    #[test]
    fn chrome_export_emits_one_record_per_event() {
        let t = Tracer::default();
        let t0 = t.now_ns();
        t.span(TraceKind::Step { worker: 1, step: 9 }, t0);
        t.instant(TraceKind::ServerKill { server: 2 });
        t.instant(TraceKind::ProtocolSwitch {
            from: "Bsp".into(),
            to: "Asp".into(),
            reason: "barrier-wait fraction 0.41 over threshold".into(),
        });
        let json = t.chrome_trace_json(7);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"step\""));
        assert!(json.contains("\"ph\":\"X\""), "span phase: {json}");
        assert!(json.contains("\"name\":\"server_kill\""));
        assert!(json.contains("\"ph\":\"i\""), "instant phase: {json}");
        assert!(json.contains("\"pid\":7"));
        assert!(json.contains(
            "\"from\":\"Bsp\",\"to\":\"Asp\",\"reason\":\"barrier-wait fraction 0.41 over threshold\""
        ));
        let counts = t.counts_by_name();
        assert_eq!(counts["step"], 1);
        assert_eq!(counts["server_kill"], 1);
        assert_eq!(counts["protocol_switch"], 1);
    }

    #[test]
    fn server_stats_accumulate_and_snapshot() {
        let s = ServerStats::new(3);
        s.record_request(0x01, 100);
        s.record_request(0x01, 50);
        s.record_request(0x02, 1);
        s.record_request(0xff, 2); // clamped into the last slot
        s.record_reply(9);
        s.record_dedup_hit();
        s.record_apply(1, 500);
        s.record_apply(1, 700);
        s.record_apply(9, 10); // out-of-range shard: histogram only
        let snap = s.snapshot(4);
        assert_eq!(snap.server, 4);
        assert_eq!(snap.requests_for(0x01), 2);
        assert_eq!(snap.requests_for(0x02), 1);
        assert_eq!(snap.requests[OPCODE_SLOTS - 1], 1);
        assert_eq!(snap.total_requests(), 4);
        assert_eq!(snap.bytes_in, 153);
        assert_eq!(snap.bytes_out, 9);
        assert_eq!(snap.dedup_hits, 1);
        assert_eq!(snap.apply_ns.count, 3);
        assert_eq!(snap.shard_apply_ns[1], 1200);
        assert_eq!(snap.shard_applies[1], 2);
        assert_eq!(snap.shard_applies[0], 0);
    }

    #[test]
    fn server_stats_merge_rolls_up_a_tier() {
        let a = ServerStats::new(1);
        let b = ServerStats::new(2);
        a.record_request(0x01, 10);
        b.record_request(0x01, 20);
        b.record_request(0x03, 5);
        a.record_apply(0, 100);
        b.record_apply(1, 200);
        let mut merged = a.snapshot(0);
        merged.merge(&b.snapshot(1));
        assert_eq!(merged.requests_for(0x01), 2);
        assert_eq!(merged.requests_for(0x03), 1);
        assert_eq!(merged.bytes_in, 35);
        assert_eq!(merged.apply_ns.count, 2);
        assert_eq!(merged.shard_applies, vec![1, 0, 1]);
    }
}
