//! In-memory span tracing for the traced run.
//!
//! The benchmark records spans around its own calls into each layer's
//! public functions: name, start, end, parent span and the id of the
//! operation the span belongs to. Spans stay in memory until the run
//! ends. A layer's self time is its spans' durations minus the part of
//! each interval that child spans cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::util::percentile;

/// The root span name of one operation. Its self time is the part of an
/// operation no layer span covers.
pub const OP: &str = "op";

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Collects spans when enabled; every call is a no-op otherwise, so the
/// same replay code runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closed (end time recorded) on drop.
pub struct Guard<'t> {
    tracer: &'t Tracer,
    id: Option<usize>,
}

impl Guard<'_> {
    /// This span's id, to parent child spans on any thread.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.now_ns();
            self.tracer.lock()[id].end_ns = end;
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span buffer lock is never held across a panic")
    }

    /// Opens a span under `parent` for operation `op`.
    pub fn span(&self, name: &'static str, parent: Option<usize>, op: u64) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: None,
            };
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        Guard {
            tracer: self,
            id: Some(spans.len() - 1),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let _g = self.span(name, parent, op);
        f()
    }

    /// Per-layer self-time statistics, keyed by span name.
    pub fn summary(&self) -> Summary {
        let spans = self.lock().clone();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        let mut ops = std::collections::BTreeSet::new();
        for (i, s) in spans.iter().enumerate() {
            ops.insert(s.op);
            let kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(s.start_ns),
                        spans[c].end_ns.min(s.end_ns),
                    )
                })
                .collect();
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(union_len(kids));
            layers.entry(s.name).or_default().push(self_ns as f64 / 1e3);
            if s.name != OP {
                intervals.push((s.start_ns, s.end_ns));
            }
        }
        Summary {
            layers: layers
                .into_iter()
                .map(|(name, mut us)| {
                    us.sort_by(f64::total_cmp);
                    (name, LayerStats::from_sorted(&us))
                })
                .collect(),
            covered_ms: union_len(intervals) as f64 / 1e6,
            spans: spans.len(),
            ops: ops.len(),
        }
    }
}

/// Runs `replay` untraced, traced, then untraced again; `replay` returns
/// the wall time in ms of the part it replays (any warm-up excluded).
/// Returns the traced run's tracer, the mean of the two untraced times
/// (so warm-up of the machine does not count as tracing overhead) and
/// the traced time.
pub fn replay_three(mut replay: impl FnMut(&Tracer) -> f64) -> (Tracer, f64, f64) {
    let on = Tracer::new(true);
    let (mut off_ms, mut on_ms) = (0.0, 0.0);
    for traced in [false, true, false] {
        let off = Tracer::new(false);
        let ms = replay(if traced { &on } else { &off });
        if traced {
            on_ms = ms;
        } else {
            off_ms += ms / 2.0;
        }
    }
    (on, off_ms, on_ms)
}

/// Milliseconds since `started`.
pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Length of the union of half-open intervals.
fn union_len(mut v: Vec<(u64, u64)>) -> u64 {
    v.retain(|&(a, b)| b > a);
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

/// Self-time statistics of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerStats {
    pub calls: usize,
    pub total_ms: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl LayerStats {
    fn from_sorted(us: &[f64]) -> LayerStats {
        LayerStats {
            calls: us.len(),
            total_ms: us.iter().sum::<f64>() / 1e3,
            p50_us: percentile(us, 0.5),
            p99_us: percentile(us, 0.99),
        }
    }
}

/// What a traced replay recorded.
pub struct Summary {
    pub layers: BTreeMap<&'static str, LayerStats>,
    /// Wall time during which at least one layer span was open.
    pub covered_ms: f64,
    pub spans: usize,
    pub ops: usize,
}

impl Summary {
    pub fn layer(&self, name: &str) -> LayerStats {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Sum of every layer's self time (all threads), excluding the
    /// unattributed remainder of the operation roots.
    pub fn layer_self_ms(&self) -> f64 {
        self.layers
            .iter()
            .filter(|(name, _)| **name != OP)
            .map(|(_, s)| s.total_ms)
            .sum()
    }

    /// One line per layer: calls, total self time, p50 and p99 per call.
    pub fn table(&self) -> Vec<String> {
        let mut out = vec![format!(
            "  {:<24} {:>9} {:>12} {:>12} {:>12}",
            "span", "calls", "self ms", "p50 us", "p99 us"
        )];
        for (name, s) in &self.layers {
            out.push(format!(
                "  {:<24} {:>9} {:>12.3} {:>12.2} {:>12.2}",
                name, s.calls, s.total_ms, s.p50_us, s.p99_us
            ));
        }
        out
    }
}

/// Prints the traced-run accounting: the layers' self time against the
/// untraced wall time for the same work, and the tracing overhead
/// (traced replay against the same replay with spans off).
pub fn accounting(
    out: &mut crate::util::Outcome,
    summary: &Summary,
    untraced_e2e_ms: f64,
    replay_off_ms: f64,
    replay_on_ms: f64,
) {
    let self_ms = summary.layer_self_ms();
    let covered = summary.covered_ms;
    let overhead = (replay_on_ms - replay_off_ms) / replay_off_ms;
    out.line(format!(
        "trace: {} spans over {} operations",
        summary.spans, summary.ops
    ));
    out.lines.extend(summary.table());
    out.line(format!(
        "trace accounting: layer self time {self_ms:.1} ms (all threads), layer spans open {covered:.1} ms of wall; \
         untraced end-to-end wall {untraced_e2e_ms:.1} ms for the same work: layers cover {:.1}%, gap {:.1} ms",
        100.0 * covered / untraced_e2e_ms,
        untraced_e2e_ms - covered
    ));
    out.line(format!(
        "trace overhead: replay {replay_on_ms:.1} ms traced vs {replay_off_ms:.1} ms untraced ({:+.2}%)",
        100.0 * overhead
    ));
    out.metric("trace.layer_self_ms", self_ms, "ms");
    out.metric("trace.untraced_wall_ms", untraced_e2e_ms, "ms");
    out.metric("trace.covered_ratio", covered / untraced_e2e_ms, "fraction");
    out.metric("trace.gap_ms", untraced_e2e_ms - covered, "ms");
    out.metric("trace.overhead_ratio", overhead, "fraction");
}
