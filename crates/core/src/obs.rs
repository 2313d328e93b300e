//! **twpp-obs** — zero-dependency observability for the whole pipeline.
//!
//! Production-scale trace processing needs the same discipline the paper
//! applies to traces themselves: metadata about a run is as valuable as
//! the run. This module provides three layers, all std-only:
//!
//! * a **span tracer** — hierarchical wall-clock spans recorded through an
//!   [`Obs`] handle ([`Obs::span`] / [`Obs::span_on`]), buffered per
//!   thread and merged deterministically, exportable as Chrome
//!   trace-event JSON ([`Obs::chrome_trace_json`], loadable in
//!   `chrome://tracing` or Perfetto);
//! * a **metrics registry** — named counters, gauges and fixed-bucket
//!   histograms ([`Obs::counter`] / [`Obs::gauge`] / [`Obs::histogram`])
//!   with Prometheus text exposition ([`Obs::prometheus_text`]) and a
//!   JSON form ([`Obs::metrics_json`]);
//! * a **[`RunReport`]** — one serializable struct unifying
//!   [`PipelineStats`](crate::pipeline::PipelineStats), stage timings,
//!   worker reports, degradation, budget usage and the metric snapshot,
//!   with a stable documented JSON schema (DESIGN.md §13) and a
//!   validator ([`validate_report_json`]) behind `twpp report-check`.
//!
//! Design constraints:
//!
//! * **No globals.** An [`Obs`] is passed in exactly like
//!   [`gov::Budget`](crate::gov::Budget): resolved once at pipeline
//!   entry, threaded by reference. Library code never consults the
//!   environment or a process-wide registry.
//! * **Near-zero cost when disabled.** [`Obs::noop`] allocates nothing
//!   (no `Arc`, no buffers); every instrumentation call is a single
//!   branch on a `bool`. The `tests/obs.rs` overhead guard asserts a
//!   noop-sink compact run is byte-identical to the uninstrumented
//!   pipeline for 1..=8 threads.
//! * **Allocation-light when enabled.** Span names are `&'static str`,
//!   metric handles are registered once and then cost one atomic op,
//!   and worker spans are timestamps folded in at join time.
//! * **Deterministic exports.** Metrics serialize in name order; spans
//!   serialize sorted by `(start, tid, name)`; JSON keys are emitted in
//!   a fixed documented order, so golden-file tests can compare bytes.
//!
//! Metric naming convention: `twpp_<crate>_<name>`, e.g.
//! `twpp_core_events_processed_total`, `twpp_server_requests_total`.

#![deny(clippy::unwrap_used)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// The JSON schema version of [`RunReport::to_json`]. Bumped on any
/// breaking change to the report layout; `twpp report-check` refuses
/// reports from other versions.
pub const REPORT_SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Span records
// ---------------------------------------------------------------------------

/// One completed span: a named wall-clock interval attributed to a
/// logical thread (`tid` 0 is the calling thread; worker pools use
/// `worker index + 1`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// Span name (stage or operation).
    pub name: &'static str,
    /// Logical thread id (0 = orchestrating thread, n = worker n-1).
    pub tid: u32,
    /// Start offset in nanoseconds from the observer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// RAII guard returned by [`Obs::span`]: records the span on drop.
/// For a noop observer the guard is inert.
pub struct SpanGuard<'a> {
    obs: Option<&'a ObsInner>,
    name: &'static str,
    tid: u32,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = self.obs {
            let end = inner.now_ns();
            inner.push_span(SpanRecord {
                name: self.name,
                tid: self.tid,
                start_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

/// A monotonically increasing counter handle. Cloning shares the
/// underlying cell; a handle from a noop [`Obs`] is inert.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// An inert counter (what a noop observer hands out).
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a noop handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge handle: a value that can move both ways.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// An inert gauge.
    pub fn noop() -> Gauge {
        Gauge(None)
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `v` (may be negative).
    pub fn add(&self, v: i64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a noop handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bucket bounds, strictly increasing. An implicit `+Inf`
    /// bucket follows the last bound.
    bounds: Vec<u64>,
    /// One count per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram handle.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramInner>>);

impl Histogram {
    /// An inert histogram.
    pub fn noop() -> Histogram {
        Histogram(None)
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            let idx = h
                .bounds
                .iter()
                .position(|&b| v <= b)
                .unwrap_or(h.bounds.len());
            h.counts[idx].fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total observations (0 for a noop handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count.load(Ordering::Relaxed))
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// The sampled value of one registered metric.
#[derive(Clone, PartialEq, Debug)]
pub enum SampleValue {
    /// A counter value.
    Counter(u64),
    /// A gauge value.
    Gauge(i64),
    /// A histogram: cumulative bucket counts per bound (plus `+Inf`),
    /// sum and count.
    Histogram {
        /// Upper bucket bounds (the `+Inf` bucket is implicit).
        bounds: Vec<u64>,
        /// Per-bucket (non-cumulative) counts; `len == bounds.len() + 1`.
        counts: Vec<u64>,
        /// Sum of all observed values.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

/// One metric in a snapshot: name, help text, sampled value.
#[derive(Clone, PartialEq, Debug)]
pub struct MetricSample {
    /// Metric name (`twpp_<crate>_<name>` convention).
    pub name: String,
    /// Help text for the Prometheus `# HELP` line.
    pub help: String,
    /// The sampled value.
    pub value: SampleValue,
}

/// A point-in-time snapshot of every registered metric, sorted by name.
/// The unit all exports ([`MetricsSnapshot::prometheus_text`],
/// [`MetricsSnapshot::to_json`]) and the [`RunReport`] consume.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MetricsSnapshot {
    /// Samples in ascending name order.
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// The sample named `name`, if registered.
    pub fn get(&self, name: &str) -> Option<&MetricSample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Prometheus text exposition format (version 0.0.4): `# HELP` /
    /// `# TYPE` preamble plus one value line per series, metrics in
    /// name order, HELP text escaped per the exposition spec.
    /// Deterministic for a given snapshot.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            let _ = writeln!(out, "# HELP {} {}", s.name, escape_prometheus_help(&s.help));
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {} counter", s.name);
                    let _ = writeln!(out, "{} {}", s.name, v);
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {} gauge", s.name);
                    let _ = writeln!(out, "{} {}", s.name, v);
                }
                SampleValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    let _ = writeln!(out, "# TYPE {} histogram", s.name);
                    let mut cumulative = 0u64;
                    for (i, b) in bounds.iter().enumerate() {
                        cumulative += counts.get(i).copied().unwrap_or(0);
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {}",
                            s.name, b, cumulative
                        );
                    }
                    cumulative += counts.last().copied().unwrap_or(0);
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", s.name, cumulative);
                    let _ = writeln!(out, "{}_sum {}", s.name, sum);
                    let _ = writeln!(out, "{}_count {}", s.name, count);
                }
            }
        }
        out
    }

    /// JSON form: one object keyed by metric name, each value an object
    /// with `type`, `help` and the sampled fields, keys in name order.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        for s in &self.samples {
            w.key(&s.name);
            w.begin_object();
            match &s.value {
                SampleValue::Counter(v) => {
                    w.key("type");
                    w.string("counter");
                    w.key("value");
                    w.uint(*v);
                }
                SampleValue::Gauge(v) => {
                    w.key("type");
                    w.string("gauge");
                    w.key("value");
                    w.int(*v);
                }
                SampleValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    w.key("type");
                    w.string("histogram");
                    w.key("bounds");
                    w.begin_array();
                    for b in bounds {
                        w.uint(*b);
                    }
                    w.end_array();
                    w.key("counts");
                    w.begin_array();
                    for c in counts {
                        w.uint(*c);
                    }
                    w.end_array();
                    w.key("sum");
                    w.uint(*sum);
                    w.key("count");
                    w.uint(*count);
                }
            }
            w.key("help");
            w.string(&s.help);
            w.end_object();
        }
        w.end_object();
    }
}

/// Escapes a `# HELP` line per the Prometheus text exposition format:
/// `\` becomes `\\` and a newline becomes `\n`.
pub fn escape_prometheus_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a label *value* per the Prometheus text exposition format:
/// `\`, `"` and newline become `\\`, `\"` and `\n`.
pub fn escape_prometheus_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Whether `name` is a legal Prometheus metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// One metric family parsed from Prometheus exposition text.
#[derive(Clone, PartialEq, Debug)]
pub struct PromFamily {
    /// The family name (`_bucket`/`_sum`/`_count` suffixes stripped for
    /// histograms).
    pub name: String,
    /// The `# TYPE` (`counter`, `gauge` or `histogram`).
    pub kind: String,
    /// Sample lines: `(series name, label text or empty, value)`.
    pub samples: Vec<(String, String, f64)>,
}

/// A **strict** parser for the subset of the Prometheus text exposition
/// format this crate emits, used by tests and CI to validate live
/// `/metrics` scrapes. Enforced, beyond syntactic well-formedness:
///
/// * every sample belongs to a family announced by `# HELP` then
///   `# TYPE` (in that order), with a legal metric name and a known
///   type;
/// * family names are unique and strictly ascending (the registry
///   snapshots in name order);
/// * histogram families carry a complete series set: cumulative
///   monotone `_bucket` lines ending in `le="+Inf"`, plus `_sum` and
///   `_count`, with `_count` equal to the `+Inf` bucket;
/// * every value parses as a number; no garbage or orphan lines.
///
/// # Errors
///
/// The first violated constraint, naming the (1-based) line.
pub fn parse_prometheus_text(text: &str) -> Result<Vec<PromFamily>, String> {
    let mut families: Vec<PromFamily> = Vec::new();
    // The family currently being declared: set by HELP, typed by TYPE.
    let mut pending_help: Option<String> = None;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, _help) = rest
                .split_once(' ')
                .ok_or(format!("line {lineno}: HELP without help text"))?;
            if !valid_metric_name(name) {
                return Err(format!("line {lineno}: invalid metric name {name:?}"));
            }
            if let Some(last) = families.last() {
                if name <= last.name.as_str() {
                    return Err(format!(
                        "line {lineno}: family {name:?} out of order after {:?}",
                        last.name
                    ));
                }
            }
            if pending_help.is_some() {
                return Err(format!("line {lineno}: HELP for {name:?} before TYPE of previous family"));
            }
            pending_help = Some(name.to_owned());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or(format!("line {lineno}: TYPE without a type"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {lineno}: unknown type {kind:?}"));
            }
            match pending_help.take() {
                Some(h) if h == name => {}
                Some(h) => {
                    return Err(format!(
                        "line {lineno}: TYPE names {name:?} but HELP named {h:?}"
                    ))
                }
                None => return Err(format!("line {lineno}: TYPE {name:?} without preceding HELP")),
            }
            families.push(PromFamily {
                name: name.to_owned(),
                kind: kind.to_owned(),
                samples: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {lineno}: unknown comment directive"));
        }
        // A sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {lineno}: sample line without a value"))?;
        let value: f64 = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v
                .parse()
                .map_err(|_| format!("line {lineno}: unparsable value {v:?}"))?,
        };
        let (series_name, labels) = match series.split_once('{') {
            None => (series, ""),
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or(format!("line {lineno}: unterminated label set"))?;
                (n, labels)
            }
        };
        if !valid_metric_name(series_name) {
            return Err(format!("line {lineno}: invalid series name {series_name:?}"));
        }
        let family = families
            .last_mut()
            .ok_or(format!("line {lineno}: sample before any HELP/TYPE"))?;
        let belongs = if family.kind == "histogram" {
            series_name
                .strip_prefix(family.name.as_str())
                .is_some_and(|suffix| matches!(suffix, "_bucket" | "_sum" | "_count"))
        } else {
            series_name == family.name
        };
        if !belongs {
            return Err(format!(
                "line {lineno}: series {series_name:?} does not belong to family {:?}",
                family.name
            ));
        }
        family
            .samples
            .push((series_name.to_owned(), labels.to_owned(), value));
    }
    if let Some(h) = pending_help {
        return Err(format!("HELP {h:?} at end of input without TYPE"));
    }
    for family in &families {
        validate_family(family)?;
    }
    Ok(families)
}

fn validate_family(family: &PromFamily) -> Result<(), String> {
    let name = &family.name;
    if family.kind != "histogram" {
        if family.samples.len() != 1 {
            return Err(format!(
                "{name}: {} must have exactly one sample, found {}",
                family.kind,
                family.samples.len()
            ));
        }
        return Ok(());
    }
    let mut buckets: Vec<(&str, f64)> = Vec::new();
    let mut sum = None;
    let mut count = None;
    for (series, labels, value) in &family.samples {
        match series.strip_prefix(name.as_str()) {
            Some("_bucket") => {
                let le = labels
                    .strip_prefix("le=\"")
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or(format!("{name}: _bucket without an le label: {labels:?}"))?;
                buckets.push((le, *value));
            }
            Some("_sum") => sum = Some(*value),
            Some("_count") => count = Some(*value),
            _ => return Err(format!("{name}: unexpected series {series:?}")),
        }
    }
    if buckets.is_empty() {
        return Err(format!("{name}: histogram without _bucket lines"));
    }
    let (last_le, inf_count) = buckets[buckets.len() - 1];
    if last_le != "+Inf" {
        return Err(format!("{name}: final bucket must be le=\"+Inf\", found le={last_le:?}"));
    }
    let mut prev_le = f64::NEG_INFINITY;
    let mut prev_count = 0.0f64;
    for (le, bucket_count) in &buckets {
        let bound = if *le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse::<f64>()
                .map_err(|_| format!("{name}: unparsable le bound {le:?}"))?
        };
        if bound <= prev_le {
            return Err(format!("{name}: bucket bounds not strictly increasing at le={le:?}"));
        }
        if *bucket_count < prev_count {
            return Err(format!("{name}: bucket counts not cumulative at le={le:?}"));
        }
        prev_le = bound;
        prev_count = *bucket_count;
    }
    let sum = sum.ok_or(format!("{name}: histogram missing _sum"))?;
    let count = count.ok_or(format!("{name}: histogram missing _count"))?;
    if count != inf_count {
        return Err(format!(
            "{name}: _count {count} does not equal the +Inf bucket {inf_count}"
        ));
    }
    if count == 0.0 && sum != 0.0 {
        return Err(format!("{name}: empty histogram with non-zero _sum"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The Obs handle
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum MetricCell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramInner>),
}

#[derive(Debug)]
struct MetricEntry {
    help: &'static str,
    cell: MetricCell,
}

#[derive(Debug)]
struct ObsInner {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    metrics: Mutex<BTreeMap<&'static str, MetricEntry>>,
}

impl ObsInner {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push_span(&self, rec: SpanRecord) {
        lock(&self.spans).push(rec);
    }
}

/// Recovers a mutex guard even if another thread panicked while holding
/// it — observability must never poison the pipeline.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The observability handle threaded through the pipeline, mirroring how
/// [`gov::Budget`](crate::gov::Budget) is passed in. Cloning is cheap and
/// all clones record into the same buffers.
///
/// [`Obs::noop`] (the [`Default`]) allocates nothing and reduces every
/// instrumentation call to one branch; [`Obs::collecting`] records spans
/// and metrics for export.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// The disabled observer: no allocation, every call is one branch.
    pub fn noop() -> Obs {
        Obs { inner: None }
    }

    /// An enabled observer collecting spans and metrics.
    pub fn collecting() -> Obs {
        Obs {
            inner: Some(Arc::new(ObsInner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
                metrics: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether this observer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since this observer's epoch (0 when disabled). Used
    /// by worker pools that fold span timestamps in at join time.
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.now_ns())
    }

    /// Opens a span named `name` on the orchestrating thread (tid 0).
    /// The span is recorded when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_on(name, 0)
    }

    /// Opens a span attributed to logical thread `tid` (worker pools use
    /// `worker index + 1`).
    pub fn span_on(&self, name: &'static str, tid: u32) -> SpanGuard<'_> {
        match &self.inner {
            None => SpanGuard {
                obs: None,
                name,
                tid,
                start_ns: 0,
            },
            Some(inner) => SpanGuard {
                obs: Some(inner),
                name,
                tid,
                start_ns: inner.now_ns(),
            },
        }
    }

    /// Records an already-measured span. Worker pools call this at join
    /// time, in worker order, so per-thread buffers merge
    /// deterministically; tests use it to build golden traces.
    pub fn record_span(&self, name: &'static str, tid: u32, start_ns: u64, dur_ns: u64) {
        if let Some(inner) = &self.inner {
            inner.push_span(SpanRecord {
                name,
                tid,
                start_ns,
                dur_ns,
            });
        }
    }

    /// Number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| lock(&i.spans).len())
    }

    /// Registers (or retrieves) the counter `name`. Registration takes a
    /// lock; the returned handle is lock-free. Names should follow the
    /// `twpp_<crate>_<name>` convention.
    pub fn counter(&self, name: &'static str, help: &'static str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::noop();
        };
        let mut metrics = lock(&inner.metrics);
        let entry = metrics.entry(name).or_insert_with(|| MetricEntry {
            help,
            cell: MetricCell::Counter(Arc::new(AtomicU64::new(0))),
        });
        match &entry.cell {
            MetricCell::Counter(c) => Counter(Some(c.clone())),
            _ => Counter::noop(), // name already registered with another kind
        }
    }

    /// Registers (or retrieves) the gauge `name`.
    pub fn gauge(&self, name: &'static str, help: &'static str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::noop();
        };
        let mut metrics = lock(&inner.metrics);
        let entry = metrics.entry(name).or_insert_with(|| MetricEntry {
            help,
            cell: MetricCell::Gauge(Arc::new(AtomicI64::new(0))),
        });
        match &entry.cell {
            MetricCell::Gauge(g) => Gauge(Some(g.clone())),
            _ => Gauge::noop(),
        }
    }

    /// Registers (or retrieves) the fixed-bucket histogram `name` with
    /// the given strictly-increasing upper `bounds` (an implicit `+Inf`
    /// bucket is appended).
    pub fn histogram(&self, name: &'static str, help: &'static str, bounds: &[u64]) -> Histogram {
        let Some(inner) = &self.inner else {
            return Histogram::noop();
        };
        let mut metrics = lock(&inner.metrics);
        let entry = metrics.entry(name).or_insert_with(|| MetricEntry {
            help,
            cell: MetricCell::Histogram(Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            })),
        });
        match &entry.cell {
            MetricCell::Histogram(h) => Histogram(Some(h.clone())),
            _ => Histogram::noop(),
        }
    }

    /// Samples every registered metric, in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let metrics = lock(&inner.metrics);
        let samples = metrics
            .iter()
            .map(|(name, e)| MetricSample {
                name: (*name).to_owned(),
                help: e.help.to_owned(),
                value: match &e.cell {
                    MetricCell::Counter(c) => SampleValue::Counter(c.load(Ordering::Relaxed)),
                    MetricCell::Gauge(g) => SampleValue::Gauge(g.load(Ordering::Relaxed)),
                    MetricCell::Histogram(h) => SampleValue::Histogram {
                        bounds: h.bounds.clone(),
                        counts: h
                            .counts
                            .iter()
                            .map(|c| c.load(Ordering::Relaxed))
                            .collect(),
                        sum: h.sum.load(Ordering::Relaxed),
                        count: h.count.load(Ordering::Relaxed),
                    },
                },
            })
            .collect();
        MetricsSnapshot { samples }
    }

    /// All recorded spans, sorted by `(start, tid, name)` — the
    /// deterministic merge order of the per-thread buffers.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut spans = lock(&inner.spans).clone();
        spans.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(a.tid.cmp(&b.tid))
                .then(a.name.cmp(b.name))
        });
        spans
    }

    /// Chrome trace-event JSON (the `chrome://tracing` / Perfetto
    /// format): complete (`"ph":"X"`) events with microsecond
    /// timestamps, fields in a fixed order, spans in deterministic
    /// merge order.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.spans();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit");
        w.string("ms");
        w.key("traceEvents");
        w.begin_array();
        for s in &spans {
            w.begin_object();
            w.key("name");
            w.string(s.name);
            w.key("cat");
            w.string("twpp");
            w.key("ph");
            w.string("X");
            w.key("ts");
            w.raw(&format_us(s.start_ns));
            w.key("dur");
            w.raw(&format_us(s.dur_ns));
            w.key("pid");
            w.uint(1);
            w.key("tid");
            w.uint(u64::from(s.tid));
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Prometheus text exposition of the current metric snapshot.
    pub fn prometheus_text(&self) -> String {
        self.snapshot().prometheus_text()
    }

    /// JSON form of the current metric snapshot.
    pub fn metrics_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// Nanoseconds rendered as microseconds with fixed 3-decimal precision
/// (the Chrome trace-event unit).
fn format_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

// ---------------------------------------------------------------------------
// Sliding-window rate estimator
// ---------------------------------------------------------------------------

/// A sliding-window events-per-second estimator for long-lived daemons.
///
/// Counts are bucketed into `buckets` slots of `bucket_ms` each; the
/// rate is the sum over the most recent full window divided by its
/// span. Recording is lock-free (one atomic add, plus one stamp CAS
/// when a slot is recycled), so it can sit on the daemon's hot feed
/// path. Precision is deliberately coarse: a slot that straddles a
/// concurrent recycle may drop a sample, which for an operational
/// gauge is the right trade.
#[derive(Debug)]
pub struct RateEstimator {
    epoch: Instant,
    bucket_ms: u64,
    /// Per-slot count and the window index it belongs to. A slot whose
    /// stamp is older than the current window is logically empty.
    counts: Vec<AtomicU64>,
    stamps: Vec<AtomicU64>,
}

impl RateEstimator {
    /// An estimator over `buckets` slots of `bucket_ms` milliseconds
    /// each (both clamped to at least 1). The default daemon
    /// configuration is ten one-second buckets.
    pub fn new(buckets: usize, bucket_ms: u64) -> RateEstimator {
        let buckets = buckets.max(1);
        RateEstimator {
            epoch: Instant::now(),
            bucket_ms: bucket_ms.max(1),
            counts: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            stamps: (0..buckets).map(|_| AtomicU64::new(u64::MAX)).collect(),
        }
    }

    /// The default daemon configuration: a 10-second window of
    /// one-second buckets.
    pub fn per_second_window() -> RateEstimator {
        RateEstimator::new(10, 1000)
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Records `n` events now.
    pub fn record(&self, n: u64) {
        self.record_at_ms(self.now_ms(), n);
    }

    /// Events per second over the trailing window.
    pub fn per_second(&self) -> f64 {
        self.rate_at_ms(self.now_ms())
    }

    /// Deterministic core of [`RateEstimator::record`], driven by an
    /// explicit clock for tests.
    pub fn record_at_ms(&self, now_ms: u64, n: u64) {
        let idx = now_ms / self.bucket_ms;
        let slot = (idx as usize) % self.counts.len();
        let stamp = self.stamps[slot].load(Ordering::Acquire);
        if stamp != idx {
            // Recycle the slot for the new window index. Exactly one
            // racer wins the CAS and zeroes the count; losers just add
            // into the freshly-stamped slot.
            if self.stamps[slot]
                .compare_exchange(stamp, idx, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                self.counts[slot].store(0, Ordering::Release);
            }
        }
        self.counts[slot].fetch_add(n, Ordering::Relaxed);
    }

    /// Deterministic core of [`RateEstimator::per_second`].
    pub fn rate_at_ms(&self, now_ms: u64) -> f64 {
        let idx = now_ms / self.bucket_ms;
        let window = self.counts.len() as u64;
        let mut total = 0u64;
        for slot in 0..self.counts.len() {
            let stamp = self.stamps[slot].load(Ordering::Acquire);
            // Count only slots inside the trailing window (including
            // the currently-filling bucket).
            if stamp != u64::MAX && stamp <= idx && idx - stamp < window {
                total += self.counts[slot].load(Ordering::Relaxed);
            }
        }
        // The observable span: full window once warmed up, else the
        // time actually elapsed (so early rates are not diluted).
        let span_ms = (window * self.bucket_ms).min(now_ms.max(self.bucket_ms));
        total as f64 * 1000.0 / span_ms as f64
    }
}

// ---------------------------------------------------------------------------
// Leveled structured JSONL logger
// ---------------------------------------------------------------------------

/// Log severity, ordered. A [`Logger`] drops records below its
/// configured minimum.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LogLevel {
    /// Verbose diagnostics.
    Debug,
    /// Normal operational events.
    Info,
    /// Something degraded but the daemon continues.
    Warn,
    /// A failure that cost work (a failed source, an aborted run).
    Error,
}

impl LogLevel {
    /// Stable lowercase form used in log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }
}

#[derive(Debug)]
struct LoggerInner {
    path: std::path::PathBuf,
    max_bytes: u64,
    min_level: LogLevel,
    state: Mutex<LoggerState>,
}

#[derive(Debug)]
struct LoggerState {
    file: Option<std::fs::File>,
    written: u64,
}

/// A leveled structured logger writing one JSON object per line
/// (JSONL), with size-based rotation to a single `.1` sibling. The
/// noop logger (the [`Default`]) allocates nothing and reduces every
/// call to one branch — exactly the [`Obs`] discipline. Logging
/// failures are swallowed: observability must never take down the
/// daemon it observes.
///
/// Line grammar (DESIGN.md §18):
///
/// ```text
/// {"ts_ms":<unix millis>,"level":"info","msg":"...","k":"v",...}
/// ```
#[derive(Clone, Debug, Default)]
pub struct Logger {
    inner: Option<Arc<LoggerInner>>,
}

impl Logger {
    /// The disabled logger.
    pub fn noop() -> Logger {
        Logger { inner: None }
    }

    /// A logger appending to `path`, rotating to `<path>.1` once the
    /// active file passes `max_bytes` (0 means never rotate). Records
    /// below `min_level` are dropped.
    ///
    /// # Errors
    ///
    /// Opening (or creating) `path` failed.
    pub fn to_file(
        path: &std::path::Path,
        max_bytes: u64,
        min_level: LogLevel,
    ) -> std::io::Result<Logger> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let written = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(Logger {
            inner: Some(Arc::new(LoggerInner {
                path: path.to_path_buf(),
                max_bytes,
                min_level,
                state: Mutex::new(LoggerState { file: Some(file), written }),
            })),
        })
    }

    /// Whether this logger writes anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Writes one structured record: `msg` plus the given string
    /// fields, in call order, after the fixed `ts_ms`/`level`/`msg`
    /// prefix. Dropped when below the logger's minimum level.
    pub fn log(&self, level: LogLevel, msg: &str, fields: &[(&str, &str)]) {
        let Some(inner) = &self.inner else { return };
        if level < inner.min_level {
            return;
        }
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("ts_ms");
        w.uint(unix_time_ms());
        w.key("level");
        w.string(level.as_str());
        w.key("msg");
        w.string(msg);
        for (k, v) in fields {
            w.key(k);
            w.string(v);
        }
        w.end_object();
        let mut line = w.finish();
        line.push('\n');

        use std::io::Write as _;
        let mut state = lock(&inner.state);
        if inner.max_bytes > 0 && state.written + line.len() as u64 > inner.max_bytes {
            // Rotate: close, shift to the .1 sibling, reopen fresh.
            state.file = None;
            let mut rotated = inner.path.as_os_str().to_owned();
            rotated.push(".1");
            let _ = std::fs::rename(&inner.path, std::path::Path::new(&rotated));
            state.written = 0;
            state.file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&inner.path)
                .ok();
        }
        if let Some(f) = state.file.as_mut() {
            if f.write_all(line.as_bytes()).is_ok() {
                state.written += line.len() as u64;
            }
        }
    }

    /// [`LogLevel::Debug`] shorthand.
    pub fn debug(&self, msg: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Debug, msg, fields);
    }

    /// [`LogLevel::Info`] shorthand.
    pub fn info(&self, msg: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Info, msg, fields);
    }

    /// [`LogLevel::Warn`] shorthand.
    pub fn warn(&self, msg: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Warn, msg, fields);
    }

    /// [`LogLevel::Error`] shorthand.
    pub fn error(&self, msg: &str, fields: &[(&str, &str)]) {
        self.log(LogLevel::Error, msg, fields);
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_time_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// One record in the [`FlightRecorder`] ring.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlightRecord {
    /// Global sequence number (monotone across the recorder).
    pub seq: u64,
    /// Unix milliseconds when the record was written.
    pub ts_ms: u64,
    /// The source (or subsystem) the operation belongs to.
    pub source: String,
    /// The operation kind (`feed`, `seal`, `busy`, `failed`, …).
    pub op: &'static str,
    /// Free-form detail (offsets, error text).
    pub detail: String,
}

/// A fixed-capacity ring of the most recent operations, kept cheap
/// enough to run always-on in the daemon and dumped to
/// `<dir>/flightrec-<ts>.json` when a source fails or the process
/// aborts — the post-mortem of a kill-point crash carries the last N
/// operations that led up to it.
///
/// Writers never block: the sequence number is one atomic add and each
/// slot is guarded by a `try_lock` — a writer that loses a slot race
/// simply drops that record (the competing record is an equally-recent
/// neighbour). Readers ([`FlightRecorder::dump_json`]) snapshot the
/// slots and sort by sequence.
#[derive(Debug)]
pub struct FlightRecorder {
    seq: AtomicU64,
    slots: Vec<Mutex<Option<FlightRecord>>>,
}

impl FlightRecorder {
    /// A recorder holding the `capacity` most recent records (clamped
    /// to at least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            seq: AtomicU64::new(0),
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Appends one record, overwriting the oldest once the ring is
    /// full. Never blocks; under slot contention the record is
    /// dropped.
    pub fn record(&self, source: &str, op: &'static str, detail: String) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let slot = (seq as usize) % self.slots.len();
        if let Ok(mut guard) = self.slots[slot].try_lock() {
            *guard = Some(FlightRecord {
                seq,
                ts_ms: unix_time_ms(),
                source: source.to_owned(),
                op,
                detail,
            });
        }
    }

    /// Records written so far (including any dropped under contention
    /// or overwritten by ring wrap).
    pub fn records_written(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// The surviving records, oldest first.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let mut records: Vec<FlightRecord> = self
            .slots
            .iter()
            .filter_map(|s| s.try_lock().ok().and_then(|g| g.clone()))
            .collect();
        records.sort_by_key(|r| r.seq);
        records
    }

    /// The dump document: `{"flightrec_version":1,"records":[...]}`,
    /// records oldest first.
    pub fn dump_json(&self) -> String {
        let records = self.snapshot();
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("flightrec_version");
        w.uint(1);
        w.key("records_written");
        w.uint(self.records_written());
        w.key("records");
        w.begin_array();
        for r in &records {
            w.begin_object();
            w.key("seq");
            w.uint(r.seq);
            w.key("ts_ms");
            w.uint(r.ts_ms);
            w.key("source");
            w.string(&r.source);
            w.key("op");
            w.string(r.op);
            w.key("detail");
            w.string(&r.detail);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Writes the dump to `dir/flightrec-<unix millis>.json` and
    /// returns the path.
    ///
    /// # Errors
    ///
    /// Creating `dir` or writing the file failed.
    pub fn dump_to_dir(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("flightrec-{}.json", unix_time_ms()));
        std::fs::write(&path, self.dump_json())?;
        Ok(path)
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON writer (stable key order is the caller's responsibility)
// ---------------------------------------------------------------------------

/// A tiny streaming JSON writer with explicit structure calls. Emits
/// compact JSON; key order is exactly call order, which is what makes
/// the exports golden-testable.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    need_comma: Vec<bool>,
}

impl JsonWriter {
    /// A fresh writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    fn pre_value(&mut self) {
        if let Some(last) = self.need_comma.last_mut() {
            if *last {
                self.buf.push(',');
            }
            *last = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.pre_value();
        self.buf.push('{');
        self.need_comma.push(false);
    }

    /// Closes an object (`}`).
    pub fn end_object(&mut self) {
        self.need_comma.pop();
        self.buf.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.pre_value();
        self.buf.push('[');
        self.need_comma.push(false);
    }

    /// Closes an array (`]`).
    pub fn end_array(&mut self) {
        self.need_comma.pop();
        self.buf.push(']');
    }

    /// Writes an object key. Must be followed by exactly one value.
    pub fn key(&mut self, k: &str) {
        self.pre_value();
        self.push_escaped(k);
        self.buf.push(':');
        // The following value must not add its own comma.
        if let Some(last) = self.need_comma.last_mut() {
            *last = false;
        }
    }

    /// Writes a string value.
    pub fn string(&mut self, s: &str) {
        self.pre_value();
        self.push_escaped(s);
    }

    /// Writes an unsigned integer value.
    pub fn uint(&mut self, v: u64) {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
    }

    /// Writes a signed integer value.
    pub fn int(&mut self, v: i64) {
        self.pre_value();
        let _ = write!(self.buf, "{v}");
    }

    /// Writes a boolean value.
    pub fn boolean(&mut self, v: bool) {
        self.pre_value();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.pre_value();
        self.buf.push_str("null");
    }

    /// Writes a finite float with up to 6 decimals (trailing zeros kept
    /// for stability). Non-finite values serialize as `null` (JSON has
    /// no `Inf`/`NaN`).
    pub fn float(&mut self, v: f64) {
        self.pre_value();
        if v.is_finite() {
            let _ = write!(self.buf, "{v:.6}");
        } else {
            self.buf.push_str("null");
        }
    }

    /// Writes a pre-rendered JSON number token verbatim.
    pub fn raw(&mut self, token: &str) {
        self.pre_value();
        self.buf.push_str(token);
    }

    fn push_escaped(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.buf, "\\u{:04x}", c as u32);
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    /// The rendered JSON text.
    pub fn finish(self) -> String {
        self.buf
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (for report validation and golden tests)
// ---------------------------------------------------------------------------

/// A parsed JSON value. Objects use a [`BTreeMap`] so iteration is
/// deterministic; numbers are `f64` (every value the exports emit is
/// exactly representable or only used for presence checks).
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `k` of an object, if this is an object containing it.
    pub fn get(&self, k: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(k),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parses a JSON document. Strict enough for the formats this crate
/// emits: full escape handling, exponents, nested containers; rejects
/// trailing garbage.
///
/// # Errors
///
/// A human-readable message naming the byte offset of the first error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err("unexpected end of input".to_owned());
    };
    match c {
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key is not a string at byte {pos}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(&b',') => *pos += 1,
                    Some(&b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        b'"' => parse_string(b, pos).map(Json::Str),
        b't' => expect_word(b, pos, "true").map(|()| Json::Bool(true)),
        b'f' => expect_word(b, pos, "false").map(|()| Json::Bool(false)),
        b'n' => expect_word(b, pos, "null").map(|()| Json::Null),
        _ => parse_number(b, pos),
    }
}

fn expect_word(b: &[u8], pos: &mut usize, word: &str) -> Result<(), String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err("unterminated string".to_owned());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&e) = b.get(*pos) else {
                    return Err("unterminated escape".to_owned());
                };
                *pos += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| "bad \\u escape".to_owned())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_owned())?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control character at byte {pos}")),
            c => {
                // Re-decode UTF-8 multi-byte sequences.
                if c < 0x80 {
                    out.push(c as char);
                } else {
                    let start = *pos - 1;
                    let mut end = *pos;
                    while end < b.len() && (b[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&b[start..end])
                        .map_err(|_| format!("invalid utf-8 at byte {start}"))?;
                    out.push_str(s);
                    *pos = end;
                }
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_owned())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number at byte {start}"))
}

// ---------------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------------

/// How a reported run ended.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum RunOutcome {
    /// The command completed fully.
    Complete,
    /// The command produced a valid but partial/degraded result
    /// (exit code 3 in the CLI).
    Degraded,
    /// A resource budget stopped the run before completion; nothing
    /// partial was written.
    Stopped,
    /// The input was damaged (fsck found unsalvageable regions).
    Damaged,
    /// A long-lived daemon is still serving; periodic in-flight
    /// report, not a final one.
    Running,
}

impl RunOutcome {
    /// Stable string form used in the JSON schema.
    pub fn as_str(self) -> &'static str {
        match self {
            RunOutcome::Complete => "complete",
            RunOutcome::Degraded => "degraded",
            RunOutcome::Stopped => "stopped",
            RunOutcome::Damaged => "damaged",
            RunOutcome::Running => "running",
        }
    }
}

/// The pipeline section of a [`RunReport`]: sizes, factors, stage
/// timings, worker utilisation and degraded functions, rebased from
/// [`PipelineStats`](crate::pipeline::PipelineStats).
#[derive(Clone, PartialEq, Debug)]
pub struct PipelineSection {
    /// Raw WPP total bytes.
    pub raw_total_bytes: u64,
    /// Raw DCG (enter/exit) bytes.
    pub raw_dcg_bytes: u64,
    /// Raw trace (block event) bytes.
    pub raw_trace_bytes: u64,
    /// Trace bytes after redundant-trace elimination.
    pub after_dedup_bytes: u64,
    /// Trace bytes after DBB dictionary creation.
    pub after_dict_bytes: u64,
    /// Compacted TWPP trace bytes.
    pub ctwpp_trace_bytes: u64,
    /// Serialized dictionary bytes.
    pub dict_bytes: u64,
    /// LZW-compressed DCG bytes.
    pub dcg_compressed_bytes: u64,
    /// Total compacted bytes (DCG + traces + dictionaries).
    pub total_compacted_bytes: u64,
    /// Overall compaction factor (`null` in JSON when infinite).
    pub overall_factor: f64,
    /// Stage wall times in nanoseconds, keyed as in
    /// [`StageTimings`](crate::pipeline::StageTimings) plus the total.
    pub timings: Vec<(&'static str, u64)>,
    /// Worker-pool threads used by the per-function stage.
    pub worker_threads: u64,
    /// Items processed per worker.
    pub items_per_worker: Vec<u64>,
    /// Degraded (failed) functions: `(func id, call count, stage, reason)`.
    pub degraded: Vec<(u32, u64, String, String)>,
}

/// The fsck section of a [`RunReport`], rebased from
/// [`RecoveryReport`](crate::recovery::RecoveryReport).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FsckSection {
    /// Container version of the verified archive (2 or 3).
    pub version: u32,
    /// Input size in bytes.
    pub total_bytes: u64,
    /// Whether the header verified.
    pub header_ok: bool,
    /// Whether the compressed DCG verified.
    pub dcg_ok: bool,
    /// Whether the name table verified.
    pub names_ok: bool,
    /// Whether the commit footer verified.
    pub committed: bool,
    /// Payload bytes recovered.
    pub salvaged_bytes: u64,
    /// Which salvage strategy ran (stable string form of
    /// [`SalvageStrategy`](crate::recovery::SalvageStrategy)).
    pub salvage_strategy: String,
    /// Total function regions found.
    pub functions_total: u64,
    /// Regions whose checksum verified and payload decoded.
    pub functions_salvaged: u64,
    /// Regions lost to damage.
    pub functions_lost: u64,
    /// Functions recorded as failed-at-compaction (degraded runs).
    pub functions_degraded: u64,
}

/// Budget usage of a governed run.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct BudgetSection {
    /// Whether any limit was configured.
    pub limited: bool,
    /// Steps charged.
    pub steps_used: u64,
    /// Bytes charged.
    pub bytes_used: u64,
}

/// One machine-readable record of a whole run: what command ran, how it
/// ended, what the pipeline did, what fsck saw, what the budget spent
/// and every metric the observer collected. Serialized by
/// [`RunReport::to_json`] under the schema documented in DESIGN.md §13
/// and validated by [`validate_report_json`].
#[derive(Clone, PartialEq, Debug)]
pub struct RunReport {
    /// The command that produced the report (`compact`, `query`,
    /// `fsck`, `bench`, …).
    pub command: String,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// The stop reason for [`RunOutcome::Stopped`] / truncated runs.
    pub stop_reason: Option<String>,
    /// Resolved worker-pool size.
    pub threads: u64,
    /// Pipeline statistics (compact runs).
    pub pipeline: Option<PipelineSection>,
    /// Verification results (fsck runs).
    pub fsck: Option<FsckSection>,
    /// Budget usage.
    pub budget: BudgetSection,
    /// Snapshot of every metric the observer collected.
    pub metrics: MetricsSnapshot,
    /// Number of spans recorded (the spans themselves go to
    /// `--trace-out`).
    pub span_count: u64,
}

impl RunReport {
    /// A minimal report for `command` with the given outcome.
    pub fn new(command: &str, outcome: RunOutcome) -> RunReport {
        RunReport {
            command: command.to_owned(),
            outcome,
            stop_reason: None,
            threads: 1,
            pipeline: None,
            fsck: None,
            budget: BudgetSection::default(),
            metrics: MetricsSnapshot::default(),
            span_count: 0,
        }
    }

    /// Serializes the report as compact JSON with a fixed key order —
    /// the stable schema consumed by `twpp report-check` and CI.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("schema_version");
        w.uint(REPORT_SCHEMA_VERSION);
        w.key("command");
        w.string(&self.command);
        w.key("outcome");
        w.string(self.outcome.as_str());
        w.key("stop_reason");
        match &self.stop_reason {
            Some(r) => w.string(r),
            None => w.null(),
        }
        w.key("threads");
        w.uint(self.threads);
        w.key("budget");
        w.begin_object();
        w.key("limited");
        w.boolean(self.budget.limited);
        w.key("steps_used");
        w.uint(self.budget.steps_used);
        w.key("bytes_used");
        w.uint(self.budget.bytes_used);
        w.end_object();
        w.key("pipeline");
        match &self.pipeline {
            None => w.null(),
            Some(p) => {
                w.begin_object();
                w.key("raw_total_bytes");
                w.uint(p.raw_total_bytes);
                w.key("raw_dcg_bytes");
                w.uint(p.raw_dcg_bytes);
                w.key("raw_trace_bytes");
                w.uint(p.raw_trace_bytes);
                w.key("after_dedup_bytes");
                w.uint(p.after_dedup_bytes);
                w.key("after_dict_bytes");
                w.uint(p.after_dict_bytes);
                w.key("ctwpp_trace_bytes");
                w.uint(p.ctwpp_trace_bytes);
                w.key("dict_bytes");
                w.uint(p.dict_bytes);
                w.key("dcg_compressed_bytes");
                w.uint(p.dcg_compressed_bytes);
                w.key("total_compacted_bytes");
                w.uint(p.total_compacted_bytes);
                w.key("overall_factor");
                w.float(p.overall_factor);
                w.key("timings_nanos");
                w.begin_object();
                for (name, nanos) in &p.timings {
                    w.key(name);
                    w.uint(*nanos);
                }
                w.end_object();
                w.key("workers");
                w.begin_object();
                w.key("threads");
                w.uint(p.worker_threads);
                w.key("items_per_worker");
                w.begin_array();
                for n in &p.items_per_worker {
                    w.uint(*n);
                }
                w.end_array();
                w.end_object();
                w.key("degraded");
                w.begin_array();
                for (func, calls, stage, reason) in &p.degraded {
                    w.begin_object();
                    w.key("func");
                    w.uint(u64::from(*func));
                    w.key("call_count");
                    w.uint(*calls);
                    w.key("stage");
                    w.string(stage);
                    w.key("reason");
                    w.string(reason);
                    w.end_object();
                }
                w.end_array();
                w.end_object();
            }
        }
        w.key("fsck");
        match &self.fsck {
            None => w.null(),
            Some(f) => {
                w.begin_object();
                w.key("version");
                w.uint(u64::from(f.version));
                w.key("total_bytes");
                w.uint(f.total_bytes);
                w.key("header_ok");
                w.boolean(f.header_ok);
                w.key("dcg_ok");
                w.boolean(f.dcg_ok);
                w.key("names_ok");
                w.boolean(f.names_ok);
                w.key("committed");
                w.boolean(f.committed);
                w.key("salvaged_bytes");
                w.uint(f.salvaged_bytes);
                w.key("salvage_strategy");
                w.string(&f.salvage_strategy);
                w.key("functions_total");
                w.uint(f.functions_total);
                w.key("functions_salvaged");
                w.uint(f.functions_salvaged);
                w.key("functions_lost");
                w.uint(f.functions_lost);
                w.key("functions_degraded");
                w.uint(f.functions_degraded);
                w.end_object();
            }
        }
        w.key("span_count");
        w.uint(self.span_count);
        w.key("metrics");
        self.metrics.write_json(&mut w);
        w.end_object();
        w.finish()
    }
}

/// Validates `text` against the RunReport JSON schema (DESIGN.md §13):
/// schema version, required keys, types, outcome vocabulary, and the
/// shape of the optional `pipeline` and `fsck` sections.
///
/// # Errors
///
/// The first violated constraint, as a human-readable message.
pub fn validate_report_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let obj = doc.as_obj().ok_or("report is not a JSON object")?;
    let version = obj
        .get("schema_version")
        .and_then(Json::as_num)
        .ok_or("missing numeric schema_version")?;
    if version != REPORT_SCHEMA_VERSION as f64 {
        return Err(format!(
            "unsupported schema_version {version} (expected {REPORT_SCHEMA_VERSION})"
        ));
    }
    obj.get("command")
        .and_then(Json::as_str)
        .ok_or("missing string command")?;
    let outcome = obj
        .get("outcome")
        .and_then(Json::as_str)
        .ok_or("missing string outcome")?;
    if !matches!(
        outcome,
        "complete" | "degraded" | "stopped" | "damaged" | "running"
    ) {
        return Err(format!("invalid outcome {outcome:?}"));
    }
    match obj.get("stop_reason") {
        Some(Json::Null) | Some(Json::Str(_)) => {}
        _ => return Err("stop_reason must be a string or null".to_owned()),
    }
    obj.get("threads")
        .and_then(Json::as_num)
        .ok_or("missing numeric threads")?;
    let budget = obj
        .get("budget")
        .and_then(Json::as_obj)
        .ok_or("missing budget object")?;
    for key in ["steps_used", "bytes_used"] {
        budget
            .get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("budget.{key} must be a number"))?;
    }
    budget
        .get("limited")
        .and_then(Json::as_bool)
        .ok_or("budget.limited must be a boolean")?;
    match obj.get("pipeline") {
        Some(Json::Null) | None => {}
        Some(p) => validate_pipeline_section(p)?,
    }
    match obj.get("fsck") {
        Some(Json::Null) | None => {}
        Some(f) => validate_fsck_section(f)?,
    }
    obj.get("span_count")
        .and_then(Json::as_num)
        .ok_or("missing numeric span_count")?;
    let metrics = obj
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("missing metrics object")?;
    for (name, m) in metrics {
        let m = m
            .as_obj()
            .ok_or_else(|| format!("metric {name} is not an object"))?;
        let kind = m
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("metric {name} has no type"))?;
        match kind {
            "counter" | "gauge" => {
                m.get("value")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("metric {name} has no numeric value"))?;
            }
            "histogram" => {
                for key in ["bounds", "counts"] {
                    m.get(key)
                        .and_then(Json::as_arr)
                        .ok_or_else(|| format!("metric {name}.{key} must be an array"))?;
                }
                for key in ["sum", "count"] {
                    m.get(key)
                        .and_then(Json::as_num)
                        .ok_or_else(|| format!("metric {name}.{key} must be a number"))?;
                }
            }
            other => return Err(format!("metric {name} has unknown type {other:?}")),
        }
    }
    Ok(())
}

fn validate_pipeline_section(p: &Json) -> Result<(), String> {
    let obj = p.as_obj().ok_or("pipeline must be an object or null")?;
    for key in [
        "raw_total_bytes",
        "raw_dcg_bytes",
        "raw_trace_bytes",
        "after_dedup_bytes",
        "after_dict_bytes",
        "ctwpp_trace_bytes",
        "dict_bytes",
        "dcg_compressed_bytes",
        "total_compacted_bytes",
    ] {
        obj.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("pipeline.{key} must be a number"))?;
    }
    match obj.get("overall_factor") {
        Some(Json::Num(_)) | Some(Json::Null) => {}
        _ => return Err("pipeline.overall_factor must be a number or null".to_owned()),
    }
    let timings = obj
        .get("timings_nanos")
        .and_then(Json::as_obj)
        .ok_or("pipeline.timings_nanos must be an object")?;
    for key in [
        "partition",
        "dedup",
        "function_stage",
        "dcg_compress",
        "archive_encode",
        "total",
    ] {
        timings
            .get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("pipeline.timings_nanos.{key} must be a number"))?;
    }
    let workers = obj
        .get("workers")
        .and_then(Json::as_obj)
        .ok_or("pipeline.workers must be an object")?;
    workers
        .get("threads")
        .and_then(Json::as_num)
        .ok_or("pipeline.workers.threads must be a number")?;
    workers
        .get("items_per_worker")
        .and_then(Json::as_arr)
        .ok_or("pipeline.workers.items_per_worker must be an array")?;
    let degraded = obj
        .get("degraded")
        .and_then(Json::as_arr)
        .ok_or("pipeline.degraded must be an array")?;
    for d in degraded {
        let d = d.as_obj().ok_or("pipeline.degraded entries must be objects")?;
        d.get("func")
            .and_then(Json::as_num)
            .ok_or("degraded.func must be a number")?;
        d.get("call_count")
            .and_then(Json::as_num)
            .ok_or("degraded.call_count must be a number")?;
        d.get("stage")
            .and_then(Json::as_str)
            .ok_or("degraded.stage must be a string")?;
        d.get("reason")
            .and_then(Json::as_str)
            .ok_or("degraded.reason must be a string")?;
    }
    Ok(())
}

fn validate_fsck_section(f: &Json) -> Result<(), String> {
    let obj = f.as_obj().ok_or("fsck must be an object or null")?;
    for key in [
        "version",
        "total_bytes",
        "salvaged_bytes",
        "functions_total",
        "functions_salvaged",
        "functions_lost",
        "functions_degraded",
    ] {
        obj.get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("fsck.{key} must be a number"))?;
    }
    for key in ["header_ok", "dcg_ok", "names_ok", "committed"] {
        obj.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("fsck.{key} must be a boolean"))?;
    }
    obj.get("salvage_strategy")
        .and_then(Json::as_str)
        .ok_or("fsck.salvage_strategy must be a string")?;
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_allocates_nothing_and_records_nothing() {
        let obs = Obs::noop();
        assert!(!obs.is_enabled());
        {
            let _g = obs.span("stage");
        }
        let c = obs.counter("twpp_core_x_total", "x");
        c.add(10);
        assert_eq!(c.get(), 0);
        obs.gauge("twpp_core_g", "g").set(7);
        obs.histogram("twpp_core_h", "h", &[1, 2]).observe(5);
        assert_eq!(obs.span_count(), 0);
        assert!(obs.snapshot().samples.is_empty());
        assert_eq!(obs.now_ns(), 0);
    }

    #[test]
    fn spans_record_and_sort_deterministically() {
        let obs = Obs::collecting();
        obs.record_span("b", 1, 100, 50);
        obs.record_span("a", 0, 100, 10);
        obs.record_span("c", 0, 20, 5);
        {
            let _g = obs.span("live");
        }
        let spans = obs.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, "c");
        assert_eq!(spans[1].name, "a"); // start 100, tid 0 before tid 1
        assert_eq!(spans[2].name, "b");
        assert_eq!(spans[3].name, "live");
    }

    #[test]
    fn counters_gauges_histograms_snapshot_in_name_order() {
        let obs = Obs::collecting();
        let c = obs.counter("twpp_core_events_total", "events");
        c.add(3);
        c.inc();
        let g = obs.gauge("twpp_core_bytes", "bytes");
        g.set(100);
        g.add(-30);
        let h = obs.histogram("twpp_core_traces", "traces", &[1, 5, 10]);
        for v in [0, 1, 2, 7, 100] {
            h.observe(v);
        }
        let snap = obs.snapshot();
        let names: Vec<&str> = snap.samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["twpp_core_bytes", "twpp_core_events_total", "twpp_core_traces"]
        );
        assert_eq!(
            snap.get("twpp_core_events_total").unwrap().value,
            SampleValue::Counter(4)
        );
        assert_eq!(
            snap.get("twpp_core_bytes").unwrap().value,
            SampleValue::Gauge(70)
        );
        match &snap.get("twpp_core_traces").unwrap().value {
            SampleValue::Histogram {
                bounds,
                counts,
                sum,
                count,
            } => {
                assert_eq!(bounds, &vec![1, 5, 10]);
                assert_eq!(counts, &vec![2, 1, 1, 1]);
                assert_eq!(*sum, 110);
                assert_eq!(*count, 5);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        // Re-registration returns the same cell.
        let c2 = obs.counter("twpp_core_events_total", "events");
        c2.inc();
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn json_writer_and_parser_round_trip() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("s");
        w.string("a\"b\\c\n");
        w.key("n");
        w.int(-42);
        w.key("arr");
        w.begin_array();
        w.uint(1);
        w.boolean(true);
        w.null();
        w.end_array();
        w.end_object();
        let text = w.finish();
        assert_eq!(text, "{\"s\":\"a\\\"b\\\\c\\n\",\"n\":-42,\"arr\":[1,true,null]}");
        let parsed = parse_json(&text).unwrap();
        assert_eq!(parsed.get("s").unwrap().as_str().unwrap(), "a\"b\\c\n");
        assert_eq!(parsed.get("n").unwrap().as_num().unwrap(), -42.0);
        assert_eq!(parsed.get("arr").unwrap().as_arr().unwrap().len(), 3);
        assert!(parse_json("{\"x\": }").is_err());
        assert!(parse_json("[1,2] trailing").is_err());
    }

    #[test]
    fn chrome_trace_is_loadable_json_with_fixed_fields() {
        let obs = Obs::collecting();
        obs.record_span("partition", 0, 1_500, 2_500);
        let text = obs.chrome_trace_json();
        let doc = parse_json(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get("name").unwrap().as_str().unwrap(), "partition");
        assert_eq!(e.get("ph").unwrap().as_str().unwrap(), "X");
        assert_eq!(e.get("ts").unwrap().as_num().unwrap(), 1.5);
        assert_eq!(e.get("dur").unwrap().as_num().unwrap(), 2.5);
    }

    #[test]
    fn report_serializes_and_validates() {
        let mut report = RunReport::new("compact", RunOutcome::Complete);
        report.threads = 4;
        report.budget = BudgetSection {
            limited: true,
            steps_used: 10,
            bytes_used: 20,
        };
        let text = report.to_json();
        validate_report_json(&text).unwrap();
        // Tampering fails validation.
        let broken = text.replace("\"outcome\":\"complete\"", "\"outcome\":\"sideways\"");
        assert!(validate_report_json(&broken).is_err());
        let broken = text.replace("\"schema_version\":1", "\"schema_version\":99");
        assert!(validate_report_json(&broken).is_err());
        let missing = text.replace("\"budget\"", "\"budgetx\"");
        assert!(validate_report_json(&missing).is_err());
    }

    #[test]
    fn running_outcome_is_valid_for_daemon_reports() {
        let report = RunReport::new("serve-ingest", RunOutcome::Running);
        let text = report.to_json();
        assert!(text.contains("\"outcome\":\"running\""));
        validate_report_json(&text).unwrap();
    }

    #[test]
    fn prometheus_text_escapes_help_and_passes_strict_parser() {
        let obs = Obs::collecting();
        obs.counter("twpp_core_a_total", "line one\nline \\ two").add(3);
        obs.gauge("twpp_core_b", "a gauge").set(-7);
        let h = obs.histogram("twpp_core_c", "a histogram", &[1, 5]);
        for v in [0, 3, 9] {
            h.observe(v);
        }
        let text = obs.prometheus_text();
        assert!(text.contains("line one\\nline \\\\ two"));
        let families = parse_prometheus_text(&text).unwrap();
        assert_eq!(families.len(), 3);
        assert_eq!(families[0].name, "twpp_core_a_total");
        assert_eq!(families[0].kind, "counter");
        assert_eq!(families[0].samples[0].2, 3.0);
        assert_eq!(families[1].samples[0].2, -7.0);
        let hist = &families[2];
        assert_eq!(hist.kind, "histogram");
        // buckets le=1, le=5, le=+Inf, then _sum and _count.
        assert_eq!(hist.samples.len(), 5);
        assert_eq!(hist.samples[2].1, "le=\"+Inf\"");
        assert_eq!(hist.samples[2].2, 3.0);
    }

    #[test]
    fn strict_prometheus_parser_rejects_malformed_exposition() {
        // TYPE before HELP.
        assert!(parse_prometheus_text("# TYPE x counter\n# HELP x h\nx 1\n").is_err());
        // Unknown type.
        assert!(parse_prometheus_text("# HELP x h\n# TYPE x summary\nx 1\n").is_err());
        // Sample outside its family.
        assert!(parse_prometheus_text("# HELP x h\n# TYPE x counter\ny 1\n").is_err());
        // Families out of name order.
        assert!(parse_prometheus_text(
            "# HELP b h\n# TYPE b counter\nb 1\n# HELP a h\n# TYPE a counter\na 1\n"
        )
        .is_err());
        // Histogram without a +Inf bucket.
        assert!(parse_prometheus_text(
            "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"
        )
        .is_err());
        // Histogram with non-cumulative buckets.
        assert!(parse_prometheus_text(
            "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"
        )
        .is_err());
        // _count disagreeing with the +Inf bucket.
        assert!(parse_prometheus_text(
            "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n"
        )
        .is_err());
        // A well-formed minimal document parses.
        let ok = parse_prometheus_text(
            "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_sum 12\nh_count 3\n"
        )
        .unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn label_value_escaping_covers_quote_backslash_newline() {
        assert_eq!(
            escape_prometheus_label_value("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd"
        );
    }

    #[test]
    fn rate_estimator_windows_and_expires_old_buckets() {
        let r = RateEstimator::new(10, 1000);
        // 100 events spread over the first 4 seconds.
        for s in 0..4u64 {
            r.record_at_ms(s * 1000 + 500, 25);
        }
        // At t=4s only 4s have elapsed: 100 events / 4 s.
        assert!((r.rate_at_ms(4_000) - 25.0).abs() < 1e-9);
        // Once warmed past the window the same events dilute to ~/10 s.
        assert!((r.rate_at_ms(9_999) - 10.0).abs() < 0.01);
        // 20 s later the old buckets have expired.
        assert!(r.rate_at_ms(24_000) < 1e-9);
        // A fresh burst shows up immediately.
        r.record_at_ms(24_100, 50);
        assert!(r.rate_at_ms(24_200) > 0.0);
    }

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "twpp-obs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn logger_writes_jsonl_filters_levels_and_rotates() {
        let dir = test_dir("log");
        let path = dir.join("daemon.log");
        let log = Logger::to_file(&path, 160, LogLevel::Info).unwrap();
        assert!(log.is_enabled());
        log.debug("dropped", &[]);
        log.info("hello", &[("source", "s1"), ("events", "12")]);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "debug line must be filtered: {text}");
        let doc = parse_json(lines[0]).unwrap();
        assert_eq!(doc.get("level").unwrap().as_str().unwrap(), "info");
        assert_eq!(doc.get("msg").unwrap().as_str().unwrap(), "hello");
        assert_eq!(doc.get("source").unwrap().as_str().unwrap(), "s1");
        assert!(doc.get("ts_ms").unwrap().as_num().unwrap() > 0.0);
        // Push past the byte cap to force a rotation to the .1 sibling.
        for i in 0..8 {
            log.warn("filler", &[("i", &i.to_string())]);
        }
        let rotated = dir.join("daemon.log.1");
        assert!(rotated.exists(), "rotation must produce a .1 sibling");
        // Every line in both files is standalone valid JSON.
        for p in [&path, &rotated] {
            for line in std::fs::read_to_string(p).unwrap().lines() {
                parse_json(line).unwrap();
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        // The noop logger accepts records and stays disabled.
        let noop = Logger::noop();
        assert!(!noop.is_enabled());
        noop.error("ignored", &[]);
    }

    #[test]
    fn flight_recorder_keeps_most_recent_and_dumps_valid_json() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record("s1", "feed", format!("offset {i}"));
        }
        assert_eq!(rec.records_written(), 10);
        let snap = rec.snapshot();
        assert_eq!(snap.len(), 4);
        // Ring keeps the newest four, oldest first.
        let seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(snap[3].detail, "offset 9");
        let doc = parse_json(&rec.dump_json()).unwrap();
        assert_eq!(doc.get("flightrec_version").unwrap().as_num().unwrap(), 1.0);
        assert_eq!(doc.get("records").unwrap().as_arr().unwrap().len(), 4);
        let dir = test_dir("flightrec");
        let path = rec.dump_to_dir(&dir).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap().starts_with("flightrec-"));
        parse_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
