//! Structured tracing and metrics for the ECAD stack.
//!
//! The paper's master "orchestrates the evaluation process" across
//! simulation, hardware-database, and physical workers (§III-A) and
//! reports Table III run statistics; this module is the telemetry
//! substrate that makes those numbers observable *while* a search runs
//! instead of only after it finishes. Like the rest of `rt`, it has no
//! external dependencies.
//!
//! Three coordinated pieces:
//!
//! * **Events** — leveled ([`Level`]) records with a static event name
//!   and `key = value` fields ([`Value`]), emitted through the
//!   [`crate::trace!`] / [`crate::debug!`] / [`crate::info!`] /
//!   [`crate::warn!`] macros and routed to pluggable [`Sink`]s: a
//!   stderr pretty-printer ([`StderrSink`]), a JSONL writer built on
//!   [`crate::json`] ([`JsonlSink`]), and a drainable in-memory buffer
//!   ([`CaptureSink`]) that tests read and the cluster mode uses to
//!   ship evaluation-time events across the wire
//!   ([`Event::to_wire_json`]) for replay on the coordinator
//!   ([`Obs::emit_event`]).
//! * **Spans** — [`crate::span!`] returns a guard that measures the
//!   enclosed scope with a monotonic clock; on drop it records the
//!   duration into a log-scale histogram named `span.<name>_s` and
//!   emits a close event. Wall-clock durations never enter the JSONL
//!   stream by default, so traces stay byte-identical across same-seed
//!   runs.
//! * **Metrics** — a registry of named counters, gauges, and log-scale
//!   histograms (p50/p90/p99) whose hot paths are single atomic
//!   operations, safe across the engine's `std::thread::scope` worker
//!   pool.
//!
//! The [`Obs`] handle ties the three together. A disabled handle
//! ([`Obs::disabled`]) costs one branch per call site, so library code
//! can be instrumented unconditionally.
//!
//! ## JSONL schema
//!
//! [`JsonlSink`] writes one compact JSON object per line:
//!
//! ```text
//! {"seq":3,"level":"debug","target":"ecad_core::engine","event":"cache_hit","fields":{"key":"9a…"}}
//! ```
//!
//! `seq` is a per-sink monotonic sequence number assigned under the
//! writer lock, so line order always matches `seq` order. `fields`
//! preserves emission order. Timing (`elapsed_us`, an integer count of
//! microseconds) appears only when the sink was built
//! [`JsonlSink::with_timing`], because wall-clock values are inherently
//! non-deterministic.
//!
//! ## Profiling
//!
//! Attaching a [`crate::prof::Profiler`] via [`ObsBuilder::profiler`]
//! upgrades spans from flat histograms to a hierarchical call tree.
//! One rule decides which spans enter it: a span opens a profile frame
//! when its handle carries a profiler *and* its thread has one
//! [installed](crate::prof::Profiler::install). The handle decides
//! whether, the thread decides which tree: the frame opens through
//! [`crate::prof::span`], the same primitive kernel
//! [`crate::prof_span!`] sites use. Threads that only wait on remote
//! work never install a profiler, so their spans stay out of the tree.
//!
//! A profiled span's close event gains a deterministic `path` field
//! (the semicolon-joined ancestry, e.g. `engine;evaluate;train`). When
//! the frame's profiler reads the deterministic `ticks` clock it also
//! gains `span_us` (integer microseconds, byte-stable); the wall clock
//! keeps durations out of the trace — for the same reason `elapsed_us`
//! is opt-in — so profiled runs stay reproducible.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::{Cursor, DecodeError, FromJson, Json, EXACT};
use crate::prof::{ClockKind, ProfGuard, Profiler};

// ---------------------------------------------------------------------------
// Levels
// ---------------------------------------------------------------------------

/// Event severity, ordered from most verbose to most important.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Fine-grained detail: tournament picks, replacement victims.
    Trace,
    /// Per-step decisions: breeding, cache hits, submissions.
    Debug,
    /// Run milestones: search start/end, evaluated candidates.
    Info,
    /// Surprising but survivable: infeasible candidates, worker panics.
    Warn,
}

impl Level {
    /// Stable lowercase name (`"trace"`, `"debug"`, `"info"`, `"warn"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }

    /// Parses a level name; `None` for anything unrecognized.
    pub fn parse(text: &str) -> Option<Level> {
        match text {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------------
// Field values
// ---------------------------------------------------------------------------

/// A structured field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean field.
    Bool(bool),
    /// An unsigned integer field.
    U64(u64),
    /// A signed integer field.
    I64(i64),
    /// A floating-point field.
    F64(f64),
    /// A string field.
    Str(String),
}

impl Value {
    /// Converts to a JSON value. Integers above 2^53 would lose
    /// precision as JSON numbers, so they degrade to decimal strings.
    pub fn to_json(&self) -> Json {
        const EXACT: u64 = 1 << 53;
        match self {
            Value::Bool(b) => Json::Bool(*b),
            Value::U64(x) if *x <= EXACT => Json::Number(*x as f64),
            Value::U64(x) => Json::String(x.to_string()),
            Value::I64(x) if x.unsigned_abs() <= EXACT => Json::Number(*x as f64),
            Value::I64(x) => Json::String(x.to_string()),
            Value::F64(x) => Json::Number(*x),
            Value::Str(s) => Json::String(s.clone()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::U64(x) => write!(f, "{x}"),
            Value::I64(x) => write!(f, "{x}"),
            Value::F64(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

macro_rules! value_from {
    ($($t:ty => $variant:ident as $cast:ty),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from(x: $t) -> Value {
                Value::$variant(x as $cast)
            }
        }
    )*};
}

value_from! {
    bool => Bool as bool,
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64,
    u64 => U64 as u64, usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64,
    i64 => I64 as i64, isize => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64,
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Value {
        Value::Str(s.clone())
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One structured telemetry record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Severity.
    pub level: Level,
    /// Emitting module (`module_path!()` at the call site).
    pub target: &'static str,
    /// Stable event kind, e.g. `"cache_hit"`.
    pub name: &'static str,
    /// `key = value` fields in emission order.
    pub fields: Vec<(&'static str, Value)>,
    /// Wall-clock duration for span-close events. Kept outside
    /// `fields` so deterministic sinks can drop it wholesale.
    pub elapsed_s: Option<f64>,
}

impl Event {
    /// The JSONL representation. `seq` is the sink's line number;
    /// timing is included only when `include_timing` is set.
    pub fn to_json(&self, seq: u64, include_timing: bool) -> Json {
        let mut fields = Json::object();
        for (k, v) in &self.fields {
            fields = fields.insert(k, v.to_json());
        }
        let mut obj = Json::object()
            .insert("seq", seq)
            .insert("level", self.level.as_str())
            .insert("target", self.target)
            .insert("event", self.name)
            .insert("fields", fields);
        if include_timing {
            if let Some(s) = self.elapsed_s {
                // Whole microseconds: rt::json renders integral f64s
                // without a fraction, so the field is a JSON integer.
                obj = obj.insert("elapsed_us", (s * 1e6).round());
            }
        }
        obj
    }

    /// A human-oriented single-line rendering for the stderr sink.
    pub fn pretty(&self) -> String {
        let mut out = format!("{:>5} {} {}", self.level, self.target, self.name);
        for (k, v) in &self.fields {
            out.push(' ');
            out.push_str(k);
            out.push('=');
            out.push_str(&v.to_string());
        }
        if let Some(s) = self.elapsed_s {
            out.push_str(&format!(" ({:.3} ms)", s * 1e3));
        }
        out
    }

    /// The self-contained wire representation the cluster mode uses to
    /// ship evaluation-time events from a worker to the coordinator.
    /// Unlike [`Event::to_json`] it carries no sink `seq`, encodes
    /// fields as an ordered `[key, value]` list (duplicates and order
    /// survive), and always includes `elapsed_s` when present so the
    /// receiving side decides what to surface.
    pub fn to_wire_json(&self) -> Json {
        let fields = Json::Array(
            self.fields
                .iter()
                .map(|(k, v)| Json::Array(vec![Json::String((*k).to_string()), v.to_json()]))
                .collect(),
        );
        let mut obj = Json::object()
            .insert("level", self.level.as_str())
            .insert("target", self.target)
            .insert("event", self.name)
            .insert("fields", fields);
        if let Some(s) = self.elapsed_s {
            obj = obj.insert("elapsed_s", s);
        }
        obj
    }

    /// Decodes a [`Event::to_wire_json`] document. `target`, `name`,
    /// and field keys are interned ([`intern`]) to recover the
    /// `&'static str` lifetimes.
    ///
    /// JSON numbers do not distinguish the integer [`Value`] variants,
    /// so integral in-range numbers decode canonically (non-negative →
    /// [`Value::U64`], negative → [`Value::I64`], everything else →
    /// [`Value::F64`]). The canonical variant renders byte-identically
    /// through [`Value::to_json`] and `Display`, so JSONL traces and
    /// stderr lines are unaffected by a wire round trip.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] naming the first malformed field.
    pub fn from_wire_json(doc: &Json) -> Result<Event, DecodeError> {
        Event::from_json(doc)
    }
}

impl FromJson for Event {
    /// The wire form; see [`Event::from_wire_json`].
    fn decode(j: Cursor<'_>) -> Result<Event, DecodeError> {
        let level = j.field("level")?;
        let level_name = level.str()?;
        let fields = j.field("fields")?.list(|pair| {
            match <[Value; 2]>::try_from(Vec::<Value>::decode(pair)?) {
                Ok([Value::Str(key), value]) => Ok((intern(&key), value)),
                _ => Err(pair.expected("a [key, value] pair")),
            }
        })?;
        Ok(Event {
            level: Level::parse(level_name)
                .ok_or_else(|| level.error(format!("unknown level {level_name:?}")))?,
            target: intern(j.field("target")?.str()?),
            name: intern(j.field("event")?.str()?),
            fields,
            elapsed_s: j.opt("elapsed_s")?,
        })
    }
}

impl FromJson for Value {
    /// A wire field value; see [`Event::from_wire_json`] for the
    /// canonicalization rules.
    fn decode(at: Cursor<'_>) -> Result<Value, DecodeError> {
        match at.json() {
            Json::Bool(b) => Ok(Value::Bool(*b)),
            Json::String(s) => Ok(Value::Str(s.clone())),
            Json::Number(x) if x.fract() == 0.0 && x.abs() <= EXACT => {
                if *x < 0.0 {
                    Ok(Value::I64(*x as i64))
                } else {
                    Ok(Value::U64(*x as u64))
                }
            }
            Json::Number(x) => Ok(Value::F64(*x)),
            _ => Err(at.expected("a boolean, number or string")),
        }
    }
}

/// Interns a string, returning a `&'static str` that compares equal to
/// every other interning of the same text. Used to reconstruct
/// [`Event`]s (whose `target`/`name`/keys are `&'static str`) from
/// their wire form; the backing memory is deliberately leaked, which is
/// fine for the small closed set of event names a protocol uses.
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut guard = pool.lock().expect("intern pool");
    if let Some(existing) = guard.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    guard.insert(leaked);
    leaked
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Where events go. Implementations must be thread-safe: the engine's
/// worker pool records from multiple threads.
pub trait Sink: Send + Sync {
    /// Least severe level this sink wants; events below it are skipped.
    fn min_level(&self) -> Level {
        Level::Trace
    }

    /// Records one event.
    fn record(&self, event: &Event);

    /// Flushes any buffered output.
    fn flush(&self) {}
}

/// Pretty-prints events to stderr — the human-facing sink the CLI's
/// `--log-level` flag controls. Never writes to stdout, which is
/// reserved for report output.
#[derive(Debug)]
pub struct StderrSink {
    min: Level,
}

impl StderrSink {
    /// A stderr sink that shows `min` and above.
    pub fn new(min: Level) -> Self {
        Self { min }
    }
}

impl Sink for StderrSink {
    fn min_level(&self) -> Level {
        self.min
    }

    fn record(&self, event: &Event) {
        eprintln!("{}", event.pretty());
    }
}

struct JsonlInner {
    out: Box<dyn Write + Send>,
    seq: u64,
}

/// Writes one compact JSON object per event (JSONL) through
/// [`crate::json`], so traces are machine-parsable with the same
/// parser that reads them back. Sequence numbers are assigned under
/// the writer lock, keeping line order and `seq` order identical.
pub struct JsonlSink {
    min: Level,
    include_timing: bool,
    inner: Mutex<JsonlInner>,
}

impl JsonlSink {
    /// A JSONL sink over an arbitrary writer (tests use an in-memory
    /// buffer), recording `min` and above, timing excluded.
    pub fn to_writer(min: Level, out: Box<dyn Write + Send>) -> Self {
        Self {
            min,
            include_timing: false,
            inner: Mutex::new(JsonlInner { out, seq: 0 }),
        }
    }

    /// A JSONL sink writing to the file at `path` (truncating any
    /// existing file), recording `min` and above.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(min: Level, path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::to_writer(
            min,
            Box::new(std::io::BufWriter::new(file)),
        ))
    }

    /// A JSONL sink appending to the file at `path`, with sequence
    /// numbers continuing from the file's existing line count. A
    /// resumed run writing through this sink extends the interrupted
    /// trace exactly as the uninterrupted run would have — same lines,
    /// same `seq` values.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be read or
    /// opened for append.
    pub fn append(min: Level, path: &std::path::Path) -> std::io::Result<Self> {
        let existing = match std::fs::read_to_string(path) {
            Ok(text) => text.lines().count() as u64,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(e),
        };
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self {
            min,
            include_timing: false,
            inner: Mutex::new(JsonlInner {
                out: Box::new(std::io::BufWriter::new(file)),
                seq: existing,
            }),
        })
    }

    /// Includes span timing (`elapsed_us`) in the output. Off by
    /// default: wall-clock values make traces non-reproducible.
    pub fn with_timing(mut self, include: bool) -> Self {
        self.include_timing = include;
        self
    }

    /// Flushes buffered lines to the underlying writer. Also runs on
    /// drop, so short-lived (or panicking) processes don't truncate
    /// the tail of a trace; call it explicitly before reading the file
    /// back while the sink is still alive.
    pub fn flush(&self) {
        let _ = self.inner.lock().expect("jsonl sink poisoned").out.flush();
    }
}

impl Sink for JsonlSink {
    fn min_level(&self) -> Level {
        self.min
    }

    fn record(&self, event: &Event) {
        let mut inner = self.inner.lock().expect("jsonl sink poisoned");
        let seq = inner.seq;
        inner.seq += 1;
        let line = event.to_json(seq, self.include_timing).to_string();
        let _ = writeln!(inner.out, "{line}");
    }

    fn flush(&self) {
        JsonlSink::flush(self);
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// An unbounded drainable buffer of events — the in-memory sink. Tests
/// read a run's events back through it, and the cluster worker runs
/// each evaluation under an [`Obs`] carrying one of these, then
/// [`CaptureSink::take`]s what the evaluation emitted and ships it to
/// the coordinator for replay — so a remote evaluation's trace lines
/// come out byte-identical to a local one's.
pub struct CaptureSink {
    min: Level,
    events: Mutex<Vec<Event>>,
}

impl CaptureSink {
    /// A capture buffer recording `min` and above. Use [`Level::Trace`]
    /// to forward everything and let the receiving side's sinks filter.
    pub fn new(min: Level) -> Arc<Self> {
        Arc::new(Self {
            min,
            events: Mutex::new(Vec::new()),
        })
    }

    /// Drains and returns everything captured so far, in emission
    /// order.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("capture buffer"))
    }

    /// How many events are currently buffered.
    pub fn len(&self) -> usize {
        self.events.lock().expect("capture buffer").len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for Arc<CaptureSink> {
    fn min_level(&self) -> Level {
        self.min
    }

    fn record(&self, event: &Event) {
        self.events
            .lock()
            .expect("capture buffer")
            .push(event.clone());
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Atomically adds to an f64 stored as bits in an `AtomicU64`.
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = f64::from_bits(current) + v;
        match cell.compare_exchange_weak(
            current,
            next.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

/// A monotonically increasing counter. Handles are cheap clones of one
/// shared atomic; increments are single `fetch_add`s.
#[derive(Clone)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (zero on a disabled handle).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Clone)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (zero on a disabled handle).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

/// Buckets per octave (factor-of-two range) in [`Histogram`]. Four
/// sub-buckets bound any reported quantile within ±9 % of the true
/// value — plenty for p50/p90/p99 timing summaries.
const HIST_SUB: f64 = 4.0;
/// Smallest representable histogram value: one nanosecond when values
/// are seconds. With 256 buckets the range tops out near 1.8e10.
const HIST_MIN: f64 = 1e-9;
/// Bucket count; values above the range clamp into the last bucket.
const HIST_BUCKETS: usize = 256;

/// A log-scale histogram: fixed buckets at ratio 2^(1/4), recorded
/// with one atomic increment, summarized as p50/p90/p99. Designed for
/// durations in seconds but accepts any positive value.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    fn bucket_index(v: f64) -> usize {
        if !(v > HIST_MIN) {
            return 0;
        }
        (((v / HIST_MIN).log2() * HIST_SUB) as usize).min(HIST_BUCKETS - 1)
    }

    /// Geometric midpoint of bucket `i`, the value quantiles report.
    fn bucket_value(i: usize) -> f64 {
        HIST_MIN * 2f64.powf((i as f64 + 0.5) / HIST_SUB)
    }

    /// Records one observation. Non-finite and non-positive values
    /// land in the lowest bucket and contribute zero to the sum.
    pub fn record(&self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0.0..=1.0`), accurate to one bucket
    /// (±9 %). Zero when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_value(i);
            }
        }
        Self::bucket_value(HIST_BUCKETS - 1)
    }

    /// A point-in-time summary.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Frozen histogram statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Observation sum.
    pub sum: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl HistogramSummary {
    /// Arithmetic mean (exact, from the true sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A histogram handle, cheap to clone and record through.
#[derive(Clone)]
pub struct HistogramHandle(Option<Arc<Histogram>>);

impl HistogramHandle {
    /// Records one observation.
    pub fn record(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Current summary (empty on a disabled handle).
    pub fn summary(&self) -> HistogramSummary {
        self.0.as_ref().map_or(
            HistogramSummary {
                count: 0,
                sum: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
            },
            |h| h.summary(),
        )
    }

    /// The `q`-quantile (zero on a disabled or empty handle) — the
    /// hook for summaries beyond the fixed p50/p90/p99 set, e.g. the
    /// per-worker p95 latency the cluster health endpoint reports.
    pub fn quantile(&self, q: f64) -> f64 {
        self.0.as_ref().map_or(0.0, |h| h.quantile(q))
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count())
    }
}

// ---------------------------------------------------------------------------
// Labeled metric keys
// ---------------------------------------------------------------------------

/// Escapes a label value per the Prometheus text-format spec:
/// backslash, double-quote, and newline must be written as `\\`, `\"`,
/// and `\n` inside the quoted value.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Builds the canonical registry key for a labeled metric:
/// `name{k1="v1",k2="v2"}` with labels sorted by key and values
/// escaped. The registry stays a flat string map — a label set is just
/// part of the key — so snapshots remain sorted and deterministic, and
/// the Prometheus renderer can split the key back apart at the first
/// `{`. With no labels the key is the bare name.
pub fn labeled_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut sorted: Vec<(&str, &str)> = labels.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::with_capacity(name.len() + 16 * sorted.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&escape_label_value(v));
        out.push_str("\"");
    }
    out.push('}');
    out
}

enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Histogram>),
}

/// A point-in-time metric reading, as returned by [`Obs::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram summary.
    Histogram(HistogramSummary),
}

/// The registry of named metrics. Registration takes a lock once per
/// handle; recording through a handle is lock-free.
#[derive(Default)]
pub struct Metrics {
    registry: Mutex<HashMap<String, Metric>>,
}

impl Metrics {
    fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut reg = self.registry.lock().expect("metrics registry");
        match reg
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    fn gauge(&self, name: &str) -> Arc<AtomicU64> {
        let mut reg = self.registry.lock().expect("metrics registry");
        match reg
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0.0f64.to_bits()))))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut reg = self.registry.lock().expect("metrics registry");
        match reg
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let reg = self.registry.lock().expect("metrics registry");
        let mut out: Vec<(String, MetricValue)> = reg
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Metric::Gauge(g) => {
                        MetricValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed)))
                    }
                    Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
                };
                (name.clone(), value)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

// ---------------------------------------------------------------------------
// The Obs handle
// ---------------------------------------------------------------------------

struct ObsInner {
    level: Level,
    sinks: Vec<Box<dyn Sink>>,
    metrics: Metrics,
    profiler: Option<Profiler>,
    /// Span-name → histogram handle, so opening a span never formats a
    /// metric name or takes the registry lock after first use.
    span_hists: Mutex<HashMap<&'static str, HistogramHandle>>,
}

/// The observability handle threaded through the stack: a level gate,
/// a set of sinks, and a metrics registry behind one `Arc`. Cloning is
/// a reference-count bump; the default handle is disabled and costs a
/// single branch per instrumentation site.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Obs(disabled)"),
            Some(inner) => write!(
                f,
                "Obs(level={}, sinks={})",
                inner.level,
                inner.sinks.len()
            ),
        }
    }
}

impl Obs {
    /// The no-op handle: no sinks, no metrics, near-zero cost.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Starts building an enabled handle.
    pub fn builder() -> ObsBuilder {
        ObsBuilder {
            sinks: Vec::new(),
            profiler: None,
        }
    }

    /// Whether anything is listening at all (sinks or metrics).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether an event at `level` would reach at least one sink.
    /// Instrumentation sites gate field construction on this.
    pub fn is_enabled(&self, level: Level) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => !inner.sinks.is_empty() && level >= inner.level,
        }
    }

    /// Emits an event; prefer the [`crate::info!`]-family macros which
    /// gate on [`Obs::is_enabled`] before building fields.
    pub fn emit(
        &self,
        level: Level,
        target: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, Value)>,
    ) {
        self.dispatch(Event {
            level,
            target,
            name,
            fields,
            elapsed_s: None,
        });
    }

    /// Dispatches a fully-formed event, `elapsed_s` included — the
    /// replay path for events that crossed the wire from a cluster
    /// worker ([`Event::from_wire_json`]). Replay feeds sinks only: it
    /// does not touch span histograms or the profiler, so metrics
    /// describe local work while traces describe the whole search.
    pub fn emit_event(&self, event: Event) {
        self.dispatch(event);
    }

    fn dispatch(&self, event: Event) {
        if let Some(inner) = &self.inner {
            for sink in &inner.sinks {
                if event.level >= sink.min_level() {
                    sink.record(&event);
                }
            }
        }
    }

    /// Opens a span: the returned guard measures until drop, records
    /// the duration into the histogram `span.<name>_s`, and emits a
    /// close event at `level`. When this handle carries a profiler, the
    /// span also opens a frame under the profiler installed on the
    /// calling thread, if any (see the module docs' Profiling section).
    /// Prefer the [`crate::span!`] macro.
    pub fn span(
        &self,
        level: Level,
        target: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, Value)>,
    ) -> Span {
        let Some(inner) = &self.inner else {
            return Span { state: None };
        };
        let hist = {
            let mut cache = inner.span_hists.lock().expect("span hist cache");
            cache
                .entry(name)
                .or_insert_with(|| {
                    HistogramHandle(Some(inner.metrics.histogram(&format!("span.{name}_s"))))
                })
                .clone()
        };
        // Proxy threads that only wait on remote work install no
        // profiler, so their spans stay out of the tree: their ticks
        // reads would interleave racily with the master thread's and
        // break profile byte-identity, and network wait is not
        // attribution-worthy work.
        let prof = inner
            .profiler
            .as_ref()
            .and_then(|_| crate::prof::span(name));
        Span {
            state: Some(SpanState {
                obs: self.clone(),
                level,
                target,
                name,
                fields,
                hist,
                prof,
                start: Instant::now(),
            }),
        }
    }

    /// The attached profiler, if any. Attaching one makes this handle's
    /// spans profiled, but only on threads that
    /// [install](Profiler::install) it: the engine installs it on its
    /// master and local-slot threads, so those spans and the kernel
    /// [`crate::prof_span!`] sites below them share one tree.
    pub fn profiler(&self) -> Option<Profiler> {
        self.inner.as_ref().and_then(|i| i.profiler.clone())
    }

    /// A counter handle for `name` (no-op when disabled).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|i| i.metrics.counter(name)))
    }

    /// A gauge handle for `name` (no-op when disabled).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| i.metrics.gauge(name)))
    }

    /// A histogram handle for `name` (no-op when disabled).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle(self.inner.as_ref().map(|i| i.metrics.histogram(name)))
    }

    /// A counter handle for `name` with a label set (e.g.
    /// `worker="host:port"`). Each distinct label-value combination is
    /// its own time series; see [`labeled_key`] for the key encoding.
    ///
    /// # Panics
    ///
    /// Panics if the labeled key is already registered as a different
    /// kind.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter(&labeled_key(name, labels))
    }

    /// A gauge handle for `name` with a label set.
    ///
    /// # Panics
    ///
    /// Panics if the labeled key is already registered as a different
    /// kind.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.gauge(&labeled_key(name, labels))
    }

    /// A histogram handle for `name` with a label set.
    ///
    /// # Panics
    ///
    /// Panics if the labeled key is already registered as a different
    /// kind.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        self.histogram(&labeled_key(name, labels))
    }

    /// All registered metrics, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.metrics.snapshot())
    }

    /// Flushes every sink (call before reading a trace file back).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            for sink in &inner.sinks {
                sink.flush();
            }
        }
    }
}

/// Builder for an enabled [`Obs`] handle.
pub struct ObsBuilder {
    sinks: Vec<Box<dyn Sink>>,
    profiler: Option<Profiler>,
}

impl ObsBuilder {
    /// Adds a sink.
    pub fn sink(mut self, sink: impl Sink + 'static) -> Self {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Attaches a hierarchical profiler: spans on threads that install
    /// it enter it, and their close events carry a `path` field (plus
    /// `span_us` under the deterministic ticks clock — see the module
    /// docs' Profiling section).
    pub fn profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Finishes the handle. The effective level is the most verbose
    /// of the sinks' levels (metrics work even with zero sinks).
    pub fn build(self) -> Obs {
        let level = self
            .sinks
            .iter()
            .map(|s| s.min_level())
            .min()
            .unwrap_or(Level::Warn);
        Obs {
            inner: Some(Arc::new(ObsInner {
                level,
                sinks: self.sinks,
                metrics: Metrics::default(),
                profiler: self.profiler,
                span_hists: Mutex::new(HashMap::new()),
            })),
        }
    }
}

struct SpanState {
    obs: Obs,
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: Vec<(&'static str, Value)>,
    hist: HistogramHandle,
    prof: Option<ProfGuard>,
    start: Instant,
}

/// A live span; dropping it records the elapsed time. See
/// [`Obs::span`].
pub struct Span {
    state: Option<SpanState>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            let elapsed = state.start.elapsed().as_secs_f64();
            state.hist.record(elapsed);
            let enabled = state.obs.is_enabled(state.level);
            // Close the profiler span either way; build the path only
            // when a close event will carry it.
            let prof_close = match state.prof {
                Some(guard) if enabled => {
                    let clock = guard.clock();
                    guard.finish().map(|close| (clock, close))
                }
                _ => None,
            };
            if enabled {
                let mut fields = state.fields;
                if let Some((clock, (ns, path))) = prof_close {
                    fields.push(("path", Value::Str(path)));
                    // Wall-clock durations would make the JSONL trace
                    // non-reproducible (the sink strips `elapsed_us`
                    // for the same reason), so only the deterministic
                    // ticks clock of the frame's profiler puts timings
                    // into the trace.
                    if clock == ClockKind::Ticks {
                        fields.push(("span_us", Value::U64(ns / 1_000)));
                    }
                }
                state.obs.dispatch(Event {
                    level: state.level,
                    target: state.target,
                    name: state.name,
                    fields,
                    elapsed_s: Some(elapsed),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Summary rendering
// ---------------------------------------------------------------------------

/// Renders a metrics snapshot as an aligned text table — the CLI's
/// `--metrics` end-of-run summary. Histogram quantiles print in
/// milliseconds.
pub fn summary_table(entries: &[(String, MetricValue)]) -> String {
    let mut rows: Vec<[String; 6]> = vec![[
        "metric".into(),
        "count".into(),
        "total".into(),
        "p50 (ms)".into(),
        "p90 (ms)".into(),
        "p99 (ms)".into(),
    ]];
    let ms = |s: f64| format!("{:.3}", s * 1e3);
    for (name, value) in entries {
        rows.push(match value {
            MetricValue::Counter(c) => [
                name.clone(),
                c.to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ],
            MetricValue::Gauge(g) => [
                name.clone(),
                String::new(),
                format!("{g}"),
                String::new(),
                String::new(),
                String::new(),
            ],
            MetricValue::Histogram(h) => [
                name.clone(),
                h.count.to_string(),
                format!("{:.3}s", h.sum),
                ms(h.p50),
                ms(h.p90),
                ms(h.p99),
            ],
        });
    }
    let mut widths = [0usize; 6];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        let mut line = String::new();
        for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            // Right-align numeric columns, left-align names.
            if i == 0 {
                line.push_str(cell);
                line.extend(std::iter::repeat_n(' ', w - cell.len()));
            } else {
                line.extend(std::iter::repeat_n(' ', w - cell.len()));
                line.push_str(cell);
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
        if r == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out.extend(std::iter::repeat_n('-', total));
            out.push('\n');
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Emits a structured event at an explicit [`Level`]; the
/// `trace!`/`debug!`/`info!`/`warn!` macros are the usual front ends.
#[macro_export]
macro_rules! obs_event {
    ($obs:expr, $level:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {{
        let obs_ref = &$obs;
        if obs_ref.is_enabled($level) {
            obs_ref.emit(
                $level,
                module_path!(),
                $name,
                vec![$((stringify!($k), $crate::obs::Value::from($v))),*],
            );
        }
    }};
}

/// Emits a [`Level::Trace`] event: `rt::trace!(obs, "tournament", winner = i)`.
#[macro_export]
macro_rules! trace {
    ($obs:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::obs_event!($obs, $crate::obs::Level::Trace, $name $(, $k = $v)*)
    };
}

/// Emits a [`Level::Debug`] event: `rt::debug!(obs, "cache_hit", key = k)`.
#[macro_export]
macro_rules! debug {
    ($obs:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::obs_event!($obs, $crate::obs::Level::Debug, $name $(, $k = $v)*)
    };
}

/// Emits a [`Level::Info`] event: `rt::info!(obs, "search_start", seed = s)`.
#[macro_export]
macro_rules! info {
    ($obs:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::obs_event!($obs, $crate::obs::Level::Info, $name $(, $k = $v)*)
    };
}

/// Emits a [`Level::Warn`] event: `rt::warn!(obs, "infeasible", reason = r)`.
#[macro_export]
macro_rules! warn {
    ($obs:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::obs_event!($obs, $crate::obs::Level::Warn, $name $(, $k = $v)*)
    };
}

/// Opens a span: `let _span = rt::span!(obs, "train", worker = id);`
/// On drop, the elapsed time lands in the `span.train_s` histogram and
/// a `train` close event is emitted at [`Level::Debug`].
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        $obs.span(
            $crate::obs::Level::Debug,
            module_path!(),
            $name,
            vec![$((stringify!($k), $crate::obs::Value::from($v))),*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_named() {
        assert!(Level::Trace < Level::Debug);
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        for l in [Level::Trace, Level::Debug, Level::Info, Level::Warn] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("nope"), None);
    }

    #[test]
    fn disabled_obs_is_inert() {
        let obs = Obs::disabled();
        assert!(!obs.is_active());
        assert!(!obs.is_enabled(Level::Warn));
        crate::warn!(obs, "nothing", x = 1);
        let c = obs.counter("a");
        c.inc();
        assert_eq!(c.get(), 0);
        assert!(obs.snapshot().is_empty());
        let _span = crate::span!(obs, "noop");
    }

    #[test]
    fn event_json_stringifies_large_integers() {
        let big = u64::MAX;
        let e = Event {
            level: Level::Info,
            target: "t",
            name: "n",
            fields: vec![("k", Value::U64(big))],
            elapsed_s: None,
        };
        let json = e.to_json(0, false);
        let field = json.get("fields").and_then(|f| f.get("k")).unwrap();
        assert_eq!(field.as_str(), Some(big.to_string().as_str()));
    }

    #[test]
    fn wire_codec_round_trips_and_canonicalizes() {
        let e = Event {
            level: Level::Warn,
            target: "ecad_core::workers",
            name: "infeasible",
            fields: vec![
                ("stage", Value::Str("train".to_string())),
                ("count", Value::U64(7)),
                ("delta", Value::F64(-0.25)),
                ("neg", Value::I64(-3)),
                ("ok", Value::Bool(false)),
                ("big", Value::U64(u64::MAX)),
                ("whole", Value::F64(2.0)),
            ],
            elapsed_s: Some(0.125),
        };
        let wire = e.to_wire_json();
        // The wire form itself survives a JSON text round trip.
        let reparsed = Json::parse(&wire.to_string()).unwrap();
        let back = Event::from_wire_json(&reparsed).unwrap();
        assert_eq!(back.level, e.level);
        assert_eq!(back.target, e.target);
        assert_eq!(back.name, e.name);
        assert_eq!(back.elapsed_s, e.elapsed_s);
        // Interning recovers pointer-stable statics.
        assert_eq!(back.fields.len(), e.fields.len());
        // Variants may canonicalize (F64(2.0) → U64(2), big U64 →
        // Str), but the rendered JSONL bytes must be unchanged.
        assert_eq!(
            back.to_json(9, false).to_string(),
            e.to_json(9, false).to_string()
        );
        assert_eq!(back.pretty(), e.pretty());
    }

    #[test]
    fn wire_codec_rejects_malformed_documents() {
        for bad in [
            Json::object(),
            Json::object().insert("level", "nope").insert("target", "t"),
            Json::object()
                .insert("level", "info")
                .insert("target", "t")
                .insert("event", "e")
                .insert("fields", Json::Array(vec![Json::Number(1.0)])),
            Json::object()
                .insert("level", "info")
                .insert("target", "t")
                .insert("event", "e")
                .insert(
                    "fields",
                    Json::Array(vec![Json::Array(vec![
                        Json::String("k".to_string()),
                        Json::Array(vec![]),
                    ])]),
                ),
        ] {
            assert!(Event::from_wire_json(&bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn capture_sink_drains_in_order_and_replays() {
        let capture = CaptureSink::new(Level::Trace);
        let obs = Obs::builder().sink(Arc::clone(&capture)).build();
        crate::warn!(obs, "first", a = 1);
        crate::debug!(obs, "second", b = "x");
        assert_eq!(capture.len(), 2);
        let events = capture.take();
        assert!(capture.is_empty());
        assert_eq!(events[0].name, "first");
        assert_eq!(events[1].name, "second");
        // Replaying through another Obs reaches its sinks verbatim.
        let sink = CaptureSink::new(Level::Trace);
        let replay = Obs::builder().sink(Arc::clone(&sink)).build();
        for ev in events {
            replay.emit_event(ev);
        }
        let seen = sink.take();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].name, "first");
        assert_eq!(seen[1].fields[0].1, Value::Str("x".to_string()));
    }

    #[test]
    fn intern_is_idempotent() {
        let a = intern("cluster-test-string");
        let b = intern("cluster-test-string");
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "cluster-test-string");
    }

    #[test]
    fn histogram_bucket_error_is_bounded() {
        // A bucket spans a 2^(1/4) ratio; its geometric midpoint is
        // within 2^(1/8) ≈ 9% of any member.
        for v in [1e-6, 3.7e-4, 0.42, 12.0] {
            let h = Histogram::new();
            h.record(v);
            let q = h.quantile(0.5);
            assert!((q / v).log2().abs() <= 0.5 / HIST_SUB + 1e-9, "{q} vs {v}");
        }
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        let dir = std::env::temp_dir().join(format!(
            "rt-obs-dropflush-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        {
            let obs = Obs::builder()
                .sink(JsonlSink::create(Level::Debug, &path).unwrap())
                .build();
            crate::info!(obs, "only_event", x = 1);
            // No explicit flush: dropping the Obs (and with it the
            // sink) must still land the buffered line on disk.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("only_event"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Trace-schema pin: `elapsed_us` serializes as a JSON integer
    /// (whole microseconds), not a float.
    #[test]
    fn elapsed_us_is_integer_microseconds() {
        let e = Event {
            level: Level::Debug,
            target: "t",
            name: "train",
            fields: vec![],
            elapsed_s: Some(0.0015004),
        };
        let line = e.to_json(0, true).to_string();
        assert!(
            line.contains("\"elapsed_us\":1500"),
            "expected integer elapsed_us in {line}"
        );
        assert!(!line.contains("1500."), "float leaked into {line}");
        // Timing stays out entirely when the sink excludes it.
        assert!(!e.to_json(0, false).to_string().contains("elapsed_us"));
    }

    #[test]
    fn span_reuses_cached_histogram_handle() {
        let obs = Obs::builder().build();
        for _ in 0..3 {
            let _s = crate::span!(obs, "train");
        }
        let snap = obs.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, "span.train_s");
        match &snap[0].1 {
            MetricValue::Histogram(h) => assert_eq!(h.count, 3),
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn span_with_profiler_emits_path_and_builds_tree() {
        use crate::prof::{ClockKind, TICK_NS};
        let sink = CaptureSink::new(Level::Debug);
        let p = Profiler::new(ClockKind::Ticks);
        let obs = Obs::builder()
            .sink(Arc::clone(&sink))
            .profiler(p.clone())
            .build();
        {
            let _install = p.install();
            let _outer = crate::span!(obs, "evaluate");
            let _inner = crate::span!(obs, "train");
        }
        let events = sink.take();
        let close = events.iter().find(|e| e.name == "train").unwrap();
        let field = |k: &str| {
            close
                .fields
                .iter()
                .find(|(n, _)| *n == k)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(
            field("path"),
            Some(Value::Str("engine;evaluate;train".into()))
        );
        assert_eq!(field("span_us"), Some(Value::U64(TICK_NS / 1_000)));
        let root = p.report();
        let train = root.find("train").unwrap();
        assert_eq!(train.calls, 1);
        assert!(root.find("evaluate").unwrap().total_ns >= train.total_ns);
    }

    #[test]
    fn wall_clock_profiler_emits_path_but_no_span_us() {
        use crate::prof::ClockKind;
        let sink = CaptureSink::new(Level::Debug);
        let p = Profiler::new(ClockKind::Wall);
        let obs = Obs::builder()
            .sink(Arc::clone(&sink))
            .profiler(p.clone())
            .build();
        {
            let _install = p.install();
            let _s = crate::span!(obs, "train");
        }
        let close = sink.take().pop().unwrap();
        assert!(close.fields.iter().any(|(k, _)| *k == "path"));
        // Wall durations must not leak into the trace; the profile
        // report still carries them.
        assert!(close.fields.iter().all(|(k, _)| *k != "span_us"));
        assert_eq!(p.report().find("train").unwrap().calls, 1);
    }

    #[test]
    fn span_without_profiler_has_no_path_field() {
        let sink = CaptureSink::new(Level::Debug);
        let obs = Obs::builder().sink(Arc::clone(&sink)).build();
        {
            let _s = crate::span!(obs, "train");
        }
        let close = sink.take().pop().unwrap();
        assert!(close.fields.iter().all(|(k, _)| *k != "path"));
        assert!(close.fields.iter().all(|(k, _)| *k != "span_us"));
    }

    /// The one profiling rule: a span opens a frame when its handle
    /// carries a profiler *and* its thread has one installed.
    #[test]
    fn span_is_profiled_only_when_handle_and_thread_both_have_a_profiler() {
        use crate::prof::ClockKind;
        let has_path = |sink: &CaptureSink| {
            sink.take()
                .iter()
                .any(|e| e.fields.iter().any(|(k, _)| *k == "path"))
        };
        let p = Profiler::new(ClockKind::Ticks);
        let sink = CaptureSink::new(Level::Debug);
        let obs = Obs::builder()
            .sink(Arc::clone(&sink))
            .profiler(p.clone())
            .build();
        // Handle with a profiler, thread with none installed (a remote
        // slot's proxy thread): no frame, no path.
        {
            let _s = crate::span!(obs, "evaluate");
        }
        assert!(!has_path(&sink));
        assert!(p.report().find("evaluate").is_none());
        // The same handle on the same thread after `install()`.
        {
            let _install = p.install();
            let _s = crate::span!(obs, "evaluate");
        }
        assert!(has_path(&sink));
        assert_eq!(p.report().find("evaluate").map(|n| n.calls), Some(1));
        // Handle without a profiler, thread with one installed (the
        // cluster worker's capture handle): no frame, no path.
        let capture = CaptureSink::new(Level::Debug);
        let plain = Obs::builder().sink(Arc::clone(&capture)).build();
        {
            let _install = p.install();
            let _s = crate::span!(plain, "train");
        }
        assert!(!has_path(&capture));
        assert!(p.report().find("train").is_none());
    }

    #[test]
    fn gauge_round_trips() {
        let obs = Obs::builder().build();
        let g = obs.gauge("g");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        assert_eq!(obs.snapshot(), vec![("g".to_string(), MetricValue::Gauge(2.5))]);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn metric_kind_conflict_panics() {
        let obs = Obs::builder().build();
        let _ = obs.gauge("x");
        let _ = obs.counter("x");
    }

    #[test]
    fn summary_table_renders_all_kinds() {
        let entries = vec![
            ("engine.cache_hits".to_string(), MetricValue::Counter(7)),
            ("pool.occupancy".to_string(), MetricValue::Gauge(0.5)),
            (
                "span.train_s".to_string(),
                MetricValue::Histogram(HistogramSummary {
                    count: 3,
                    sum: 0.006,
                    p50: 0.002,
                    p90: 0.002,
                    p99: 0.002,
                }),
            ),
        ];
        let table = summary_table(&entries);
        assert!(table.contains("engine.cache_hits"));
        assert!(table.contains("p99 (ms)"));
        assert!(table.contains("2.000"));
        for line in table.lines() {
            assert_eq!(line.trim_end(), line);
        }
    }
}
