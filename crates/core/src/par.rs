//! **twpp-par** — a minimal deterministic worker pool for per-function
//! stages.
//!
//! The TWPP pipeline is embarrassingly parallel by construction:
//! partitioning yields one independent path-trace block per function, and
//! dedup, DBB dictionary building, TWPP inversion and timestamp-series
//! compaction never cross function boundaries. This module provides the
//! one primitive all the parallel stages share: an **order-preserving
//! indexed map** over a slice, executed by a hand-rolled
//! [`std::thread::scope`] pool with a chunked atomic work queue.
//!
//! Design constraints (and why no external crate):
//!
//! * **Determinism** — [`map_indexed`] returns results in input order no
//!   matter how the scheduler interleaves workers, so parallel output is
//!   byte-identical to the sequential path. The property tests in
//!   `tests/parallel.rs` enforce this equality.
//! * **Panic propagation** — a panicking worker does not deadlock or get
//!   swallowed: the panic payload is re-raised on the calling thread via
//!   [`std::panic::resume_unwind`].
//! * **No dependencies** — the build environment has no registry access,
//!   so the pool is ~150 lines of std-only code instead of rayon.
//!
//! Thread counts resolve in priority order: explicit argument >
//! `TWPP_THREADS` environment variable > `available_parallelism()`.

#![deny(clippy::unwrap_used)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::obs::Obs;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "TWPP_THREADS";

/// Hard cap on the worker count (guards against absurd overrides).
pub const MAX_THREADS: usize = 256;

/// Number of worker threads used when no explicit count is given:
/// `TWPP_THREADS` if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`], clamped to [`MAX_THREADS`].
pub fn default_threads() -> usize {
    let from_env = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1);
    from_env.unwrap_or_else(hardware_threads).min(MAX_THREADS)
}

/// The hardware's parallelism, falling back to 1 when unknown.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves an optional explicit thread count: `Some(n)` is clamped to
/// `1..=MAX_THREADS`, `None` falls back to [`default_threads`].
pub fn resolve_threads(requested: Option<usize>) -> usize {
    match requested {
        Some(n) => n.clamp(1, MAX_THREADS),
        None => default_threads(),
    }
}

/// Per-pool execution accounting: how the work of one parallel stage was
/// spread over workers, surfaced by `--stats` and the bench crate.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct WorkerReport {
    /// Workers actually spawned (1 means the stage ran inline).
    pub threads: usize,
    /// Items processed by each worker, indexed by worker id. The counts
    /// depend on scheduling and are *not* deterministic — only the mapped
    /// results are.
    pub items_per_worker: Vec<u64>,
    /// Wall-clock nanoseconds spent in the stage (spawn to last join).
    pub wall_nanos: u64,
}

impl WorkerReport {
    /// Total items processed across all workers.
    pub fn total_items(&self) -> u64 {
        self.items_per_worker.iter().sum()
    }

    /// Workers that processed at least one item.
    pub fn busy_workers(&self) -> usize {
        self.items_per_worker.iter().filter(|&&n| n > 0).count()
    }
}

/// Applies `f` to every item of `items` using up to `threads` workers and
/// returns the results **in input order**.
///
/// Work is distributed through a chunked atomic cursor: each worker claims
/// a contiguous run of indices at a time, so neighbouring items (which
/// tend to have similar cost in frequency-sorted function lists) spread
/// across workers without a lock per item. With `threads <= 1`, a
/// single-item input, or an empty input, everything runs inline on the
/// calling thread — the sequential path is the same code.
///
/// # Panics
///
/// If `f` panics on any item, the first worker's panic payload is
/// re-raised on the calling thread after all workers have stopped.
pub fn map_indexed<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_indexed_observed(items, threads, &Obs::noop(), "par", f).0
}

/// Like [`map_indexed`], additionally returning a [`WorkerReport`] with
/// per-worker item counts and the stage's wall time, and recording one
/// span per worker (`span_name`, tid = worker index + 1) into `obs`.
///
/// A caller that must survive a panicking item (the degrade policy of
/// [`crate::compact_governed`]) wraps `f`'s body in
/// [`std::panic::catch_unwind`] and maps the payload with
/// [`crate::gov::panic_message`], so that item yields an error while every
/// other item still completes.
///
/// Workers measure their own busy interval with [`Obs::now_ns`]; the
/// records are pushed **at join time, in worker order**, so the
/// per-thread buffers merge deterministically (the span tracer's export
/// additionally sorts by `(start, tid, name)`). With a noop observer the
/// instrumentation is one branch per pool invocation — the mapped
/// results are identical either way.
pub fn map_indexed_observed<T, R, F>(
    items: &[T],
    threads: usize,
    obs: &Obs,
    span_name: &'static str,
    f: F,
) -> (Vec<R>, WorkerReport)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let started = Instant::now();
    let n = items.len();
    let workers = threads.clamp(1, MAX_THREADS).min(n.max(1));
    if workers <= 1 || n <= 1 {
        let span_start = obs.now_ns();
        let out: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        if obs.is_enabled() && n > 0 {
            let end = obs.now_ns();
            obs.record_span(span_name, 1, span_start, end.saturating_sub(span_start));
        }
        let report = WorkerReport {
            threads: 1,
            items_per_worker: vec![n as u64],
            wall_nanos: elapsed_nanos(started),
        };
        return (out, report);
    }

    // Chunk size: a few claims per worker keeps contention negligible
    // while still balancing uneven per-item cost.
    let chunk = (n / (workers * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let f = &f;

    let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    let mut counts: Vec<u64> = vec![0; workers];
    let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let cursor = &cursor;
            let obs = &*obs;
            handles.push(scope.spawn(move || {
                let span_start = obs.now_ns();
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    for (i, item) in items.iter().enumerate().take(end).skip(start) {
                        local.push((i, f(i, item)));
                    }
                }
                let span_end = obs.now_ns();
                (local, span_start, span_end)
            }));
        }
        // Join in spawn order: the deterministic merge point for the
        // per-worker spans.
        for (w, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok((local, span_start, span_end)) => {
                    if obs.is_enabled() && !local.is_empty() {
                        let tid = u32::try_from(w + 1).unwrap_or(u32::MAX);
                        obs.record_span(
                            span_name,
                            tid,
                            span_start,
                            span_end.saturating_sub(span_start),
                        );
                    }
                    counts[w] = local.len() as u64;
                    buckets.push(local);
                }
                Err(payload) => {
                    if panic_payload.is_none() {
                        panic_payload = Some(payload);
                    }
                }
            }
        }
    });
    if let Some(payload) = panic_payload {
        std::panic::resume_unwind(payload);
    }

    // Reassemble in input order: every index was claimed exactly once.
    let mut pairs: Vec<(usize, R)> = buckets.into_iter().flatten().collect();
    pairs.sort_unstable_by_key(|&(i, _)| i);
    assert!(
        pairs.len() == n,
        "worker pool lost items: got {} of {n}",
        pairs.len()
    );
    let out: Vec<R> = pairs.into_iter().map(|(_, r)| r).collect();
    let report = WorkerReport {
        threads: workers,
        items_per_worker: counts,
        wall_nanos: elapsed_nanos(started),
    };
    (out, report)
}

/// Elapsed nanoseconds since `started`, saturating at `u64::MAX`.
fn elapsed_nanos(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = map_indexed(&items, threads, |i, &x| {
                assert_eq!(i as u64, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_equals_sequential_for_every_thread_count() {
        let items: Vec<u32> = (0..257).rev().collect();
        let seq = map_indexed(&items, 1, |i, &x| (i, x.wrapping_mul(2654435761)));
        for threads in 2..=8 {
            assert_eq!(map_indexed(&items, threads, |i, &x| (i, x.wrapping_mul(2654435761))), seq);
        }
    }

    #[test]
    fn empty_and_singleton_inputs_run_inline() {
        let noop = Obs::noop();
        let (out, report) = map_indexed_observed(&[] as &[u32], 8, &noop, "par", |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(report.threads, 1);
        let (out, report) = map_indexed_observed(&[7u32], 8, &noop, "par", |_, &x| x + 1);
        assert_eq!(out, vec![8]);
        assert_eq!(report.threads, 1);
        assert_eq!(report.total_items(), 1);
    }

    #[test]
    fn report_accounts_for_every_item() {
        let items: Vec<u32> = (0..100).collect();
        let (_, report) = map_indexed_observed(&items, 4, &Obs::noop(), "par", |_, &x| x);
        assert_eq!(report.threads, 4);
        assert_eq!(report.items_per_worker.len(), 4);
        assert_eq!(report.total_items(), 100);
        assert!(report.busy_workers() >= 1);
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            map_indexed(&items, 4, |_, &x| {
                if x == 33 {
                    panic!("worker exploded on {x}");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("worker exploded"), "unexpected payload: {msg}");
    }

    #[test]
    fn isolated_map_contains_panics() {
        let items: Vec<u32> = (0..64).collect();
        // Silence the default panic hook's stderr spew for the injected
        // panic; restore afterwards so other tests are unaffected.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (out, report) = map_indexed_observed(&items, 4, &Obs::noop(), "par", |_, &x| {
            std::panic::catch_unwind(|| {
                if x == 33 {
                    panic!("worker exploded on {x}");
                }
                x * 2
            })
            .map_err(|payload| crate::gov::panic_message(payload.as_ref()))
        });
        std::panic::set_hook(prev);
        assert_eq!(out.len(), 64);
        assert_eq!(report.total_items(), 64);
        for (i, r) in out.iter().enumerate() {
            if i == 33 {
                let msg = r.as_ref().expect_err("item 33 must fail");
                assert!(msg.contains("worker exploded"), "got: {msg}");
            } else {
                assert_eq!(*r.as_ref().expect("other items succeed"), (i as u32) * 2);
            }
        }
    }

    #[test]
    fn observed_map_records_busy_worker_spans() {
        let items: Vec<u32> = (0..128).collect();
        let obs = Obs::collecting();
        let (out, report) = map_indexed_observed(&items, 4, &obs, "stage", |_, &x| x + 1);
        assert_eq!(out.len(), 128);
        let spans = obs.spans();
        // One span per busy worker, tids in 1..=threads.
        assert_eq!(spans.len(), report.busy_workers());
        for s in &spans {
            assert_eq!(s.name, "stage");
            assert!(s.tid >= 1 && s.tid as usize <= report.threads);
        }
        // A noop observer records nothing and returns the same results.
        let noop = Obs::noop();
        let (out2, _) = map_indexed_observed(&items, 4, &noop, "stage", |_, &x| x + 1);
        assert_eq!(out2, out);
        assert_eq!(noop.span_count(), 0);
    }

    #[test]
    fn thread_resolution_rules() {
        assert_eq!(resolve_threads(Some(0)), 1);
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(100_000)), MAX_THREADS);
        assert!(resolve_threads(None) >= 1);
        assert!(default_threads() >= 1);
        assert!(hardware_threads() >= 1);
    }
}
