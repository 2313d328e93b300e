//! The streaming ingestion daemon behind `twpp serve-ingest`.
//!
//! A long-lived, threaded server that accepts WPP event streams over the
//! framed [`crate::net`] protocol (TCP or Unix socket) and from tailed
//! files, and feeds each *source* into its own resumable
//! [`Compactor`] under `dir/<source>/`. It runs on the shared
//! [`crate::daemon`] skeleton (accept loop, connection loop, drain
//! sequence, admin plane) as a [`Handler`]; every failure edge is
//! hardened:
//!
//! * **Garbage in, connection out.** A frame that fails magic/CRC/kind
//!   validation quarantines that connection with a typed `Error` reply;
//!   so does any `Error` reply. The process and every other connection
//!   keep running.
//! * **Backpressure, not buffering.** When a source's open window would
//!   exceed its byte cap, or another connection holds the source busy,
//!   the daemon replies `Busy{retry_after_ms}` instead of queueing. The
//!   offset-based dedup in the feed path makes blind client replay after
//!   a `Busy` (or a reconnect) exactly-once: no acknowledged event is
//!   ever lost or doubled.
//! * **Transient I/O is retried.** WAL appends, segment commits and
//!   reply writes run under the [`Retry`] policy (exponential backoff,
//!   deterministic jitter), surfaced as `twpp_ingest_retry_*` metrics.
//! * **Wedged seals fail in isolation.** A watchdog thread marks a
//!   source failed when one durable operation exceeds `wedge_ms`; other
//!   sources and the daemon itself are unaffected, and the failed
//!   source's directory remains resumable on disk.
//! * **Graceful drain.** On cancellation (SIGTERM in the CLI) or a
//!   client `Drain` frame the daemon stops accepting, refuses open
//!   connections with `Error{ERR_DRAINING}`, joins them and the tails,
//!   then seals open windows and merges each source to `merged.twpa` —
//!   the source's one compaction, byte-identical to an uninterrupted
//!   batch run by the merge invariant (DESIGN.md §15). The drain state
//!   machine is the skeleton's ([`crate::daemon::Phase`], DESIGN.md
//!   §17); the seal-and-merge is this daemon's finish step.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use twpp_tracer::raw::WppStream;
use twpp_tracer::WppEvent;

use crate::archive::Durability;
use crate::daemon::{self, After, Core, Handler, Phase, ServeListener};
use crate::gov::{CancelToken, FaultPlan, Limits, Retry};
use crate::net::{
    valid_source_name, Frame, ERR_DRAINING, ERR_NO_HELLO, ERR_PROTOCOL, ERR_SOURCE_FAILED,
    ERR_STREAM,
};
use crate::obs::{FlightRecorder, JsonWriter, Logger, Obs, RateEstimator};
use crate::timestamped::Codec;

use super::compactor::{Compactor, IngestOptions};
use super::{io_err, IngestError};

/// Options for a [`serve`] run.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Per-source seal threshold, as [`IngestOptions::seal_bytes`].
    pub seal_bytes: u64,
    /// Per-source time-based seal, as [`IngestOptions::seal_ms`].
    pub seal_ms: Option<u64>,
    /// Durability of every per-source commit.
    pub durability: Durability,
    /// Worker threads for the drain's merge compaction (seals do not
    /// compact).
    pub threads: Option<usize>,
    /// Per-source resource limits; each source starts its own budget
    /// from these. Exhaustion is backpressure (early seals), as in
    /// [`IngestOptions::budget`].
    pub limits: Limits,
    /// Degrade policy forwarded to the drain's merge compaction.
    pub fail_fast: bool,
    /// Retry policy for transient durable I/O *and* reply writes.
    pub retry: Retry,
    /// Open-window byte cap per source. A batch that would push the
    /// window past this is shed with `Busy` while the window seals.
    /// Default: 4 × `seal_bytes`.
    pub window_cap_bytes: u64,
    /// The retry-after hint attached to `Busy` replies, in ms.
    pub retry_after_ms: u64,
    /// Watchdog deadline: one durable operation (feed/seal) exceeding
    /// this many ms marks the source failed in isolation.
    pub wedge_ms: u64,
    /// Poll interval for the accept loop, connection reads, tails and
    /// the watchdog, in ms.
    pub poll_ms: u64,
    /// Fault-injection plan, shared by every source (the kill counter,
    /// transient-I/O counter and net-fault counter are global across
    /// the daemon, so sweeps see one deterministic sequence).
    pub faults: FaultPlan,
    /// Observability sink (`twpp_ingest_serve_*` metrics).
    pub obs: Obs,
    /// Timestamp-set codec for the merged archives (sealed segments are
    /// raw windows).
    pub codec: Codec,
    /// Files to tail as event sources (name derived from the file
    /// stem): read to EOF, then poll for appended bytes until drain.
    pub tails: Vec<PathBuf>,
    /// Structured JSONL logger for operational events. The default
    /// noop logger writes nothing and costs one branch per call, so a
    /// daemon without `--log-out` behaves exactly as before.
    pub log: Logger,
    /// Crash flight recorder: a ring of recent operations dumped to
    /// `<dir>/flightrec-<ts>.json` when a source is failed or the
    /// process aborts at an injected kill point. `None` (the default)
    /// records nothing and writes nothing.
    pub flightrec: Option<Arc<FlightRecorder>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            seal_bytes: 1 << 20,
            seal_ms: None,
            durability: Durability::Sync,
            threads: None,
            limits: Limits::new(),
            fail_fast: true,
            retry: Retry::none(),
            window_cap_bytes: 4 << 20,
            retry_after_ms: 25,
            wedge_ms: 10_000,
            poll_ms: 25,
            faults: FaultPlan::none(),
            obs: Obs::noop(),
            codec: Codec::Legacy,
            tails: Vec::new(),
            log: Logger::noop(),
            flightrec: None,
        }
    }
}

impl ServeOptions {
    fn ingest_options(&self) -> IngestOptions {
        IngestOptions {
            seal_bytes: self.seal_bytes,
            seal_ms: self.seal_ms,
            durability: self.durability,
            threads: self.threads,
            budget: self.limits.start(),
            fail_fast: self.fail_fast,
            faults: self.faults.clone(),
            obs: self.obs.clone(),
            codec: self.codec,
            retry: self.retry,
        }
    }
}

/// One source's outcome in a [`ServeReport`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceReport {
    /// The source name (and its subdirectory under the serve root).
    pub name: String,
    /// Events durably accepted for this source.
    pub events: u64,
    /// Segments sealed over the source's lifetime in this process.
    pub segments: u64,
    /// Path of the merged archive, when the drain merge ran.
    pub merged: Option<PathBuf>,
    /// Why the source was failed in isolation, if it was. Its directory
    /// stays resumable on disk either way.
    pub failed: Option<String>,
}

/// What a [`serve`] run did, returned after the drain completes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ServeReport {
    /// Per-source outcomes, sorted by name.
    pub sources: Vec<SourceReport>,
    /// Connections accepted.
    pub connections: u64,
    /// Frames handled.
    pub frames: u64,
    /// `Busy` replies sent (backpressure + injected net faults).
    pub busy_responses: u64,
    /// Connections quarantined for protocol violations.
    pub quarantined: u64,
}

impl ServeReport {
    /// Whether every source drained to a merged archive without failure.
    /// (A source that saw zero events is clean but unmerged.)
    pub fn all_clean(&self) -> bool {
        self.sources.iter().all(|s| s.failed.is_none())
    }
}

/// Why a `Busy` reply was sent; each cause gets its own counter.
#[derive(Copy, Clone, Debug)]
enum BusyCause {
    /// The open window hit `window_cap_bytes`.
    WindowCap,
    /// Another connection held the source's compactor.
    LockContention,
    /// The injected flaky-socket plan shed the frame.
    InjectedFault,
}

impl BusyCause {
    fn as_str(self) -> &'static str {
        match self {
            BusyCause::WindowCap => "window_cap",
            BusyCause::LockContention => "lock_contention",
            BusyCause::InjectedFault => "injected_fault",
        }
    }
}

/// One source's shared state. The watchdog reads only the atomics, so a
/// wedged operation holding the compactor mutex cannot hide from it.
struct SourceHandle {
    name: String,
    compactor: Mutex<Option<Compactor>>,
    /// Events durably acknowledged (mirror of the compactor, readable
    /// without the mutex — `Hello` and `Drain` must answer even while a
    /// slow seal holds the lock).
    acked: AtomicU64,
    /// Segments sealed in this process (mirror, same reason).
    segments: AtomicU64,
    /// Milliseconds since server start when the in-flight durable
    /// operation began; 0 when idle. The watchdog's only input.
    op_started_ms: AtomicU64,
    /// Events in the open window (mirror — `/status` must answer
    /// without the compactor mutex).
    window_events: AtomicU64,
    /// Milliseconds since server start of the last seal; 0 = never.
    last_seal_ms: AtomicU64,
    /// Sliding-window ingest rate for `/status` (events/s).
    rate: RateEstimator,
    /// Whether the budget-exhaustion transition was already reported;
    /// exhaustion is backpressure (early seals), logged exactly once.
    budget_reported: AtomicBool,
    failed: AtomicBool,
    fail_msg: Mutex<Option<String>>,
}

impl SourceHandle {
    /// A source over its opened compactor, or one that failed to open
    /// (`Err` holds why), which is only reported.
    fn new(name: &str, opened: Result<Compactor, String>) -> SourceHandle {
        let (acked, segments, window) = opened.as_ref().map_or((0, 0, 0), |c| {
            (c.accepted_events(), c.segment_count(), c.window_events())
        });
        let failure = opened.as_ref().err().cloned();
        SourceHandle {
            name: name.to_owned(),
            compactor: Mutex::new(opened.ok()),
            acked: AtomicU64::new(acked),
            segments: AtomicU64::new(segments),
            op_started_ms: AtomicU64::new(0),
            window_events: AtomicU64::new(window),
            last_seal_ms: AtomicU64::new(0),
            rate: RateEstimator::per_second_window(),
            budget_reported: AtomicBool::new(false),
            failed: AtomicBool::new(failure.is_some()),
            fail_msg: Mutex::new(failure),
        }
    }

    fn mark_failed(&self, why: String, registry: &Registry) {
        if !self.failed.swap(true, Ordering::SeqCst) {
            registry
                .opts
                .obs
                .counter(
                    "twpp_ingest_serve_sources_failed_total",
                    "sources failed in isolation (wedged seal or unrecoverable I/O)",
                )
                .inc();
            registry
                .opts
                .log
                .error("source failed", &[("source", &self.name), ("why", &why)]);
            // The post-mortem: the last N operations that led here.
            if let Some(rec) = &registry.opts.flightrec {
                rec.record(&self.name, "failed", why.clone());
                match rec.dump_to_dir(&registry.dir) {
                    Ok(path) => registry.opts.log.info(
                        "flight recorder dumped",
                        &[("path", &path.display().to_string())],
                    ),
                    Err(e) => registry
                        .opts
                        .log
                        .warn("flight recorder dump failed", &[("why", &e.to_string())]),
                }
            }
            if let Ok(mut msg) = self.fail_msg.lock() {
                msg.get_or_insert(why);
            }
        }
    }

    fn failure(&self) -> Option<String> {
        if !self.failed.load(Ordering::SeqCst) {
            return None;
        }
        Some(
            self.fail_msg
                .lock()
                .ok()
                .and_then(|m| m.clone())
                .unwrap_or_else(|| "failed".into()),
        )
    }
}

/// Daemon-wide shared state, borrowed by every thread in the scope.
struct Registry {
    core: Core,
    dir: PathBuf,
    opts: ServeOptions,
    sources: Mutex<HashMap<String, Arc<SourceHandle>>>,
}

impl Registry {
    fn now_ms(&self) -> u64 {
        // | 1 keeps "started at t=0" distinguishable from "idle".
        self.core.uptime_ms() | 1
    }

    /// Runs one durable operation with the watchdog clock armed.
    fn with_op<T>(&self, h: &SourceHandle, op: impl FnOnce() -> T) -> T {
        h.op_started_ms.store(self.now_ms(), Ordering::SeqCst);
        let out = op();
        h.op_started_ms.store(0, Ordering::SeqCst);
        out
    }

    /// Finds or creates (possibly resuming) the source `name`.
    /// The error is the reply frame to send.
    fn get_or_create(&self, name: &str) -> Result<Arc<SourceHandle>, Frame> {
        let mut sources = match self.sources.lock() {
            Ok(g) => g,
            Err(_) => {
                return Err(Frame::Error {
                    code: ERR_SOURCE_FAILED,
                    message: "source registry poisoned".into(),
                })
            }
        };
        if let Some(h) = sources.get(name) {
            return Ok(Arc::clone(h));
        }
        if self.core.draining() {
            return Err(Frame::Error {
                code: ERR_DRAINING,
                message: "daemon is draining; not accepting new sources".into(),
            });
        }
        let sub = self.dir.join(name);
        match Compactor::open(&sub, self.opts.ingest_options()) {
            Ok((c, _resumed)) => {
                let accepted = c.accepted_events();
                let h = Arc::new(SourceHandle::new(name, Ok(c)));
                sources.insert(name.to_owned(), Arc::clone(&h));
                self.opts.log.info(
                    "source opened",
                    &[("source", name), ("accepted", &accepted.to_string())],
                );
                Ok(h)
            }
            Err(e) => Err(Frame::Error {
                code: ERR_SOURCE_FAILED,
                message: format!("{name}: {e}"),
            }),
        }
    }

    /// A `Busy` reply plus its per-cause counter, so dashboards can tell
    /// backpressure from contention from chaos drills (the skeleton
    /// counts the blended total as it sends the reply).
    fn busy_reply(&self, cause: BusyCause) -> Frame {
        let (name, help) = match cause {
            BusyCause::WindowCap => (
                "twpp_ingest_busy_window_cap_total",
                "Busy replies shed because the open window hit its byte cap",
            ),
            BusyCause::LockContention => (
                "twpp_ingest_busy_lock_contention_total",
                "Busy replies shed because another connection held the source busy",
            ),
            BusyCause::InjectedFault => (
                "twpp_ingest_busy_injected_fault_total",
                "Busy replies shed by the injected flaky-socket fault plan",
            ),
        };
        self.opts.obs.counter(name, help).inc();
        if let Some(rec) = &self.opts.flightrec {
            rec.record("-", "busy", cause.as_str().to_owned());
        }
        Frame::Busy { retry_after_ms: self.opts.retry_after_ms }
    }

    /// Handles one `Events` frame for `h`: backpressure, offset dedup,
    /// feed. Returns the reply frame.
    fn feed(&self, h: &SourceHandle, offset: u64, events: &[WppEvent]) -> Frame {
        if let Some(why) = h.failure() {
            return Frame::Error { code: ERR_SOURCE_FAILED, message: why };
        }
        // Injected flaky-socket plan: shed this frame with BUSY. The
        // client's replay-from-last-ack then proves zero acknowledged
        // loss under spurious shedding.
        if self.opts.faults.take_net_fault() {
            return self.busy_reply(BusyCause::InjectedFault);
        }
        let mut guard = match self.compactor_guard(h) {
            Ok(g) => g,
            Err(reply) => return reply,
        };
        let Some(c) = guard.as_mut() else {
            return Frame::Error {
                code: ERR_DRAINING,
                message: "source already drained".into(),
            };
        };
        let acc = c.accepted_events();
        if offset > acc {
            return Frame::Error {
                code: ERR_STREAM,
                message: format!("offset gap: batch starts at {offset}, durable position is {acc}"),
            };
        }
        let already = (acc - offset) as usize;
        if already >= events.len() {
            // Full replay of durable events (a retry after a lost ack):
            // acknowledge without re-feeding.
            return Frame::Ok { accepted: acc };
        }
        let fresh = &events[already..];
        // Window byte cap: shed the batch while the window seals, so
        // memory stays bounded no matter how fast clients push.
        if 4 * (c.window_events() + fresh.len() as u64) > self.opts.window_cap_bytes
            && c.window_events() > 0
        {
            let sealed = self.with_op(h, || c.seal());
            if let Err(e) = sealed {
                h.mark_failed(format!("seal under backpressure: {e}"), self);
                return Frame::Error {
                    code: ERR_SOURCE_FAILED,
                    message: h.failure().unwrap_or_default(),
                };
            }
            self.sync_mirrors(h, c, true);
            return self.busy_reply(BusyCause::WindowCap);
        }
        if let Some(rec) = &self.opts.flightrec {
            rec.record(&h.name, "feed", format!("offset {offset} +{}", fresh.len()));
        }
        match self.with_op(h, || c.feed(fresh)) {
            Ok(()) => {
                let acc = c.accepted_events();
                h.acked.store(acc, Ordering::SeqCst);
                h.rate.record(fresh.len() as u64);
                self.sync_mirrors(h, c, false);
                if let Some(why) = h.failure() {
                    // The watchdog fired while we were inside the op.
                    return Frame::Error { code: ERR_SOURCE_FAILED, message: why };
                }
                Frame::Ok { accepted: acc }
            }
            Err(IngestError::Stream(e)) => Frame::Error {
                code: ERR_STREAM,
                message: format!("batch rejected (nothing acknowledged): {e}"),
            },
            Err(e) => {
                h.mark_failed(e.to_string(), self);
                Frame::Error {
                    code: ERR_SOURCE_FAILED,
                    message: h.failure().unwrap_or_default(),
                }
            }
        }
    }

    /// Refreshes the lock-free `/status` mirrors from a held compactor
    /// guard. `sealed` forces the seal clock; otherwise a seal is
    /// inferred from the segment count moving (seals also fire inside
    /// `Compactor::feed` on window thresholds).
    fn sync_mirrors(&self, h: &SourceHandle, c: &Compactor, sealed: bool) {
        let segments = c.segment_count();
        let before = h.segments.swap(segments, Ordering::SeqCst);
        if sealed || before != segments {
            h.last_seal_ms.store(self.now_ms(), Ordering::SeqCst);
            if let Some(rec) = &self.opts.flightrec {
                rec.record(&h.name, "seal", format!("segments {segments}"));
            }
        }
        h.window_events.store(c.window_events(), Ordering::SeqCst);
        // Budget exhaustion is backpressure, not death — but an operator
        // should hear about the transition exactly once per source.
        if c.budget_exhausted() && !h.budget_reported.swap(true, Ordering::SeqCst) {
            self.opts
                .log
                .warn("source budget exhausted", &[("source", &h.name)]);
            if let Some(rec) = &self.opts.flightrec {
                rec.record(&h.name, "budget", "envelope exhausted; sealing early".to_owned());
            }
        }
    }

    /// Handles a `Seal` frame: forces the open window into a segment.
    fn seal(&self, h: &SourceHandle) -> Frame {
        if let Some(why) = h.failure() {
            return Frame::Error { code: ERR_SOURCE_FAILED, message: why };
        }
        let mut guard = match self.compactor_guard(h) {
            Ok(g) => g,
            Err(reply) => return reply,
        };
        let Some(c) = guard.as_mut() else {
            return Frame::Error { code: ERR_DRAINING, message: "source already drained".into() };
        };
        match self.with_op(h, || c.seal()) {
            Ok(_) => {
                self.sync_mirrors(h, c, true);
                Frame::Ok { accepted: c.accepted_events() }
            }
            Err(e) => {
                h.mark_failed(format!("seal: {e}"), self);
                Frame::Error {
                    code: ERR_SOURCE_FAILED,
                    message: h.failure().unwrap_or_default(),
                }
            }
        }
    }

    /// Non-blocking lock of the source's compactor. Contention (another
    /// connection mid-operation on the same source) is backpressure,
    /// not blocking: the caller gets a `Busy` reply frame.
    fn compactor_guard<'h>(
        &self,
        h: &'h SourceHandle,
    ) -> Result<std::sync::MutexGuard<'h, Option<Compactor>>, Frame> {
        match h.compactor.try_lock() {
            Ok(g) => Ok(g),
            Err(std::sync::TryLockError::WouldBlock) => {
                Err(self.busy_reply(BusyCause::LockContention))
            }
            Err(std::sync::TryLockError::Poisoned(_)) => Err(Frame::Error {
                code: ERR_SOURCE_FAILED,
                message: format!("{}: compactor poisoned by a panicked operation", h.name),
            }),
        }
    }
    /// Every registered source, sorted by name.
    fn handles(&self) -> Vec<Arc<SourceHandle>> {
        let mut v: Vec<_> = self
            .sources
            .lock()
            .map(|g| g.values().cloned().collect())
            .unwrap_or_default();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }
}

impl Handler for Registry {
    /// The source this connection said `Hello` to.
    type Conn = Option<Arc<SourceHandle>>;
    const COMMAND: &'static str = "serve-ingest";

    fn core(&self) -> &Core {
        &self.core
    }

    fn open(&self) -> Self::Conn {
        if let Some(rec) = &self.opts.flightrec {
            rec.record("-", "conn", String::new());
        }
        None
    }

    /// `Hello` first, then `Events`/`Seal` frames until close, drain, or
    /// quarantine. Every `Error` reply closes the connection as
    /// quarantined.
    fn frame(&self, source: &mut Self::Conn, frame: Frame) -> (Frame, After) {
        let reply = match frame {
            Frame::Hello { source: name } => match self.get_or_create(&name) {
                Ok(h) => {
                    let accepted = h.acked.load(Ordering::SeqCst);
                    *source = Some(h);
                    Frame::Ok { accepted }
                }
                Err(err_reply) => err_reply,
            },
            Frame::Events { offset, events } => match source {
                Some(h) => self.feed(h, offset, &events),
                None => Frame::Error {
                    code: ERR_NO_HELLO,
                    message: "first frame must be Hello".into(),
                },
            },
            Frame::Seal => match source {
                Some(h) => self.seal(h),
                None => Frame::Error {
                    code: ERR_NO_HELLO,
                    message: "first frame must be Hello".into(),
                },
            },
            Frame::Drain => {
                let accepted = source.as_ref().map_or(0, |h| h.acked.load(Ordering::SeqCst));
                return (Frame::Ok { accepted }, After::Drain);
            }
            Frame::Ok { .. }
            | Frame::Busy { .. }
            | Frame::Error { .. }
            | Frame::Answer(_)
            | Frame::Archives { .. } => Frame::Error {
                code: ERR_PROTOCOL,
                message: "reply frame sent by client".into(),
            },
            Frame::Query { .. }
            | Frame::Slice { .. }
            | Frame::Currency { .. }
            | Frame::ListArchives
            | Frame::Stat { .. } => Frame::Error {
                code: ERR_PROTOCOL,
                message: "serve request sent to an ingest daemon".into(),
            },
        };
        let after = if matches!(reply, Frame::Error { .. }) {
            After::Quarantine
        } else {
            After::Continue
        };
        (reply, after)
    }

    /// One row per source (schema v1, DESIGN.md §18), read from the
    /// lock-free mirrors and the sources-map lock — never a compactor
    /// mutex — so it stays responsive while a source is mid-seal or
    /// wedged.
    fn status(&self, w: &mut JsonWriter) {
        let now = self.now_ms();
        w.key("sources");
        w.begin_array();
        for h in &self.handles() {
            let started = h.op_started_ms.load(Ordering::SeqCst);
            w.begin_object();
            w.key("name");
            w.string(&h.name);
            w.key("durable_events");
            w.uint(h.acked.load(Ordering::SeqCst));
            w.key("window_events");
            w.uint(h.window_events.load(Ordering::SeqCst));
            w.key("segments");
            w.uint(h.segments.load(Ordering::SeqCst));
            w.key("last_seal_ms");
            w.uint(h.last_seal_ms.load(Ordering::SeqCst));
            w.key("events_per_sec");
            w.float(h.rate.per_second());
            w.key("in_op_ms");
            w.uint(if started == 0 { 0 } else { now.saturating_sub(started) });
            w.key("failed");
            w.boolean(h.failed.load(Ordering::SeqCst));
            w.key("failure");
            match h.failure() {
                Some(why) => w.string(&why),
                None => w.null(),
            }
            w.end_object();
        }
        w.end_array();
    }

    /// Daemon-level gauges only: per-source detail lives in `/status`
    /// (gauge names must be static; source names are not).
    fn refresh_gauges(&self, obs: &Obs) {
        obs.gauge("twpp_ingest_uptime_ms", "Milliseconds since daemon start")
            .set(self.now_ms() as i64);
        obs.gauge("twpp_ingest_draining", "1 once drain has begun")
            .set(self.core.draining() as i64);
        let (sources, failed) = self
            .sources
            .lock()
            .map(|g| {
                let failed = g.values().filter(|h| h.failed.load(Ordering::SeqCst)).count();
                (g.len(), failed)
            })
            .unwrap_or((0, 0));
        obs.gauge("twpp_ingest_sources", "Sources currently registered")
            .set(sources as i64);
        obs.gauge("twpp_ingest_sources_failed", "Sources failed by the watchdog")
            .set(failed as i64);
    }

    /// A failed source degrades health.
    fn degraded(&self) -> bool {
        self.sources
            .lock()
            .map(|g| g.values().any(|h| h.failed.load(Ordering::SeqCst)))
            .unwrap_or(true)
    }
}

/// Derives a source name from a tailed file's stem, mapping characters
/// the protocol would reject to `_`.
pub fn tail_source_name(path: &Path) -> String {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let mut name: String = stem
        .chars()
        .take(64)
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '_' })
        .collect();
    if name.is_empty() || name.starts_with(['.', '-']) {
        name = format!("t{name}");
    }
    name
}

/// Tails one appended file into its own source until drain: parse bytes
/// incrementally with [`WppStream`], feed decoded events, poll at EOF.
fn run_tail(registry: &Registry, path: &Path) {
    let name = tail_source_name(path);
    let handle = match registry.get_or_create(&name) {
        Ok(h) => h,
        Err(_) => return,
    };
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) => {
            handle.mark_failed(format!("{}: {e}", path.display()), registry);
            return;
        }
    };
    let mut parser = Some(WppStream::new());
    let mut events: Vec<WppEvent> = Vec::new();
    // Events taken from the stream before the pending `events` batch —
    // the batch's global offset for the dedup in feed_tail (a restarted
    // daemon re-reads the file from 0; the durable prefix is skipped).
    let mut fed: u64 = 0;
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if handle.failure().is_some() {
            return;
        }
        let Some(p) = parser.as_mut() else { return };
        match file.read(&mut chunk) {
            Ok(0) => {
                if !registry.core.draining() {
                    std::thread::sleep(Duration::from_millis(registry.opts.poll_ms));
                    continue;
                }
                // Drain: resolve the held-back tail (a legacy stream
                // without a footer is fine; a torn one is a failure).
                let p = parser.take().unwrap_or_default();
                if let Err(e) = p.finish(&mut events) {
                    handle.mark_failed(format!("{}: {e}", path.display()), registry);
                    return;
                }
                feed_tail(registry, &handle, &mut fed, &mut events);
                return;
            }
            Ok(n) => {
                if let Err(e) = p.push(&chunk[..n], &mut events) {
                    handle.mark_failed(format!("{}: {e}", path.display()), registry);
                    return;
                }
                if events.len() >= 4096 {
                    feed_tail(registry, &handle, &mut fed, &mut events);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                handle.mark_failed(format!("{}: {e}", path.display()), registry);
                return;
            }
        }
    }
}

/// Feeds a tail batch with the same offset dedup as the socket path,
/// but blocking on the source mutex (the tail has nowhere to shed to).
fn feed_tail(
    registry: &Registry,
    h: &SourceHandle,
    fed: &mut u64,
    events: &mut Vec<WppEvent>,
) {
    if events.is_empty() {
        return;
    }
    let offset = *fed;
    *fed += events.len() as u64;
    let Ok(mut guard) = h.compactor.lock() else {
        h.mark_failed("compactor poisoned".into(), registry);
        return;
    };
    let Some(c) = guard.as_mut() else { return };
    let acc = c.accepted_events();
    if offset > acc {
        h.mark_failed(
            format!("tail offset gap: batch at {offset}, durable position {acc}"),
            registry,
        );
        events.clear();
        return;
    }
    let already = (acc - offset) as usize;
    if already < events.len() {
        let fresh = &events[already..];
        if let Err(e) = registry.with_op(h, || c.feed(fresh)) {
            h.mark_failed(e.to_string(), registry);
        } else {
            h.acked.store(c.accepted_events(), Ordering::SeqCst);
            h.rate.record(fresh.len() as u64);
            registry.sync_mirrors(h, c, false);
        }
    }
    events.clear();
}

/// Runs the daemon: accepts connections on `listener`, tails
/// `opts.tails`, and drains gracefully when `shutdown` is cancelled
/// (the CLI wires SIGTERM to it) or a client sends `Drain`.
///
/// Returns the [`ServeReport`] after the drain merge. Per-source
/// failures live in the report ([`ServeReport::all_clean`]); only
/// daemon-level I/O (listener setup, the serve-root scan) is a hard
/// error.
pub fn serve(
    dir: &Path,
    listener: ServeListener,
    shutdown: CancelToken,
    opts: ServeOptions,
) -> Result<ServeReport, IngestError> {
    serve_with_admin(dir, listener, None, shutdown, opts)
}

/// [`serve`] with an optional admin-plane listener serving `/metrics`
/// (Prometheus text), `/status` (the schema-v1 JSON document, DESIGN.md
/// §18) and `/healthz` over minimal HTTP/1.0. `None` spawns no extra
/// thread and leaves the daemon byte-identical to the plain [`serve`].
pub fn serve_with_admin(
    dir: &Path,
    listener: ServeListener,
    admin: Option<ServeListener>,
    shutdown: CancelToken,
    opts: ServeOptions,
) -> Result<ServeReport, IngestError> {
    fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
    let registry = Registry {
        core: Core::new(opts.poll_ms, opts.retry, opts.obs.clone()),
        dir: dir.to_path_buf(),
        sources: Mutex::new(HashMap::new()),
        opts,
    };

    // Re-open every source a previous process left behind, so a drain
    // merges them even if no client reconnects first. This is also
    // where a restarted daemon pays its resume durability points.
    let mut preexisting: Vec<String> = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| io_err(dir, &e))? {
        let entry = entry.map_err(|e| io_err(dir, &e))?;
        let path = entry.path();
        if path.is_dir() && super::wal::wal_path(&path).exists() {
            if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                if valid_source_name(name) {
                    preexisting.push(name.to_owned());
                }
            }
        }
    }
    preexisting.sort();
    for name in &preexisting {
        // A damaged source directory must not kill the daemon: record
        // it as a failed source and keep serving the others.
        if let Err(Frame::Error { message, .. }) = registry.get_or_create(name) {
            registry.opts.log.error(
                "source damaged on startup",
                &[("source", name), ("why", &message)],
            );
            let h = Arc::new(SourceHandle::new(name, Err(message)));
            registry
                .opts
                .obs
                .counter(
                    "twpp_ingest_serve_sources_failed_total",
                    "sources failed in isolation (wedged seal or unrecoverable I/O)",
                )
                .inc();
            if let Ok(mut sources) = registry.sources.lock() {
                sources.insert(name.clone(), h);
            }
        }
    }
    registry.opts.log.info(
        "daemon started",
        &[
            ("dir", &dir.display().to_string()),
            ("listen", &listener.local_addr()),
            ("sources_resumed", &preexisting.len().to_string()),
        ],
    );

    let registry = &registry;
    let tails = registry.opts.tails.iter().map(|path| {
        Box::new(move || run_tail(registry, path)) as Box<dyn FnOnce() + Send + '_>
    });
    let report = std::thread::scope(|scope| {
        scope.spawn(|| watchdog(registry));
        daemon::run(registry, listener, admin, &shutdown, tails.collect(), || finish(registry))
    })
    .map_err(|e| IngestError::Io(format!("listener: {e}")))?;
    let obs = &registry.opts.obs;
    obs.counter("twpp_ingest_serve_connections_total", "connections accepted")
        .add(report.connections);
    obs.counter("twpp_ingest_serve_frames_total", "frames handled")
        .add(report.frames);
    obs.counter(
        "twpp_ingest_serve_busy_total",
        "Busy replies sent (backpressure and injected net faults)",
    )
    .add(report.busy_responses);
    obs.counter(
        "twpp_ingest_serve_quarantined_total",
        "connections quarantined for protocol violations",
    )
    .add(report.quarantined);
    registry.opts.log.info(
        "daemon drained",
        &[
            ("sources", &report.sources.len().to_string()),
            ("connections", &report.connections.to_string()),
            ("clean", if report.all_clean() { "true" } else { "false" }),
        ],
    );
    Ok(report)
}

/// Fails, in isolation, a source whose in-flight durable operation has
/// exceeded the wedge deadline. Stands down when the finish step begins:
/// the drain merge is legitimately long, and a source wedged *there*
/// could not be failed usefully anyway (finish owns the compactor;
/// nothing else is waiting on it).
fn watchdog(registry: &Registry) {
    let tick = Duration::from_millis((registry.opts.wedge_ms / 4).clamp(5, 250));
    while registry.core.phase() < Phase::Finishing {
        for h in registry.handles() {
            let started = h.op_started_ms.load(Ordering::SeqCst);
            if started != 0 && registry.now_ms().saturating_sub(started) > registry.opts.wedge_ms
            {
                h.mark_failed(
                    format!(
                        "watchdog: durable operation wedged past {} ms",
                        registry.opts.wedge_ms
                    ),
                    registry,
                );
            }
        }
        std::thread::sleep(tick);
    }
}

/// The finish step: seal + merge every source, sorted for a
/// deterministic report. Failed sources are skipped (resumable on
/// disk); empty sources have nothing to merge.
fn finish(registry: &Registry) -> ServeReport {
    registry.opts.log.info("draining", &[]);
    let mut sources = Vec::new();
    for h in registry.handles() {
        let mut report = SourceReport {
            name: h.name.clone(),
            events: h.acked.load(Ordering::SeqCst),
            segments: h.segments.load(Ordering::SeqCst),
            merged: None,
            failed: h.failure(),
        };
        if report.failed.is_none() {
            let taken = h.compactor.lock().ok().and_then(|mut g| g.take());
            if let Some(c) = taken {
                report.events = c.accepted_events();
                if c.accepted_events() > 0 {
                    match c.finish() {
                        Ok(fin) => {
                            report.segments = fin.segments;
                            report.merged = Some(fin.path);
                        }
                        Err(e) => {
                            h.mark_failed(format!("drain merge: {e}"), registry);
                        }
                    }
                }
            }
            report.failed = h.failure();
        }
        registry.opts.log.info(
            "source drained",
            &[
                ("source", &report.name),
                ("events", &report.events.to_string()),
                ("segments", &report.segments.to_string()),
                ("failed", report.failed.as_deref().unwrap_or("-")),
            ],
        );
        sources.push(report);
    }
    ServeReport {
        sources,
        connections: registry.core.connections(),
        frames: registry.core.frames(),
        busy_responses: registry.core.busy(),
        quarantined: registry.core.quarantined(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::daemon::STATUS_SCHEMA_VERSION;
    use crate::net::{Client, NetError};
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Instant;
    use twpp_ir::{BlockId, FuncId};

    fn workload(n: usize) -> Vec<WppEvent> {
        let mut ev = vec![WppEvent::Enter(FuncId::from_index(0))];
        for i in 0..n {
            ev.push(WppEvent::Block(BlockId::new(1 + (i % 7) as u32)));
            if i % 5 == 0 {
                ev.push(WppEvent::Enter(FuncId::from_index(1 + i % 3)));
                ev.push(WppEvent::Block(BlockId::new(2)));
                ev.push(WppEvent::Exit);
            }
        }
        ev.push(WppEvent::Exit);
        ev
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "twpp-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Batch baseline: one compactor fed everything in one call.
    fn baseline_merged(dir: &Path, events: &[WppEvent], opts: &ServeOptions) -> Vec<u8> {
        let mut c = Compactor::create(dir, opts.ingest_options()).unwrap();
        c.feed(events).unwrap();
        let fin = c.finish().unwrap();
        fs::read(fin.path).unwrap()
    }

    fn small_opts() -> ServeOptions {
        ServeOptions {
            seal_bytes: 256,
            durability: Durability::Flush,
            poll_ms: 5,
            ..ServeOptions::default()
        }
    }

    /// Spawns a daemon on a loopback port; returns (addr, join-handle).
    fn spawn_daemon(
        dir: &Path,
        opts: ServeOptions,
        shutdown: CancelToken,
    ) -> (String, std::thread::JoinHandle<ServeReport>) {
        let listener = ServeListener::bind("tcp:127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let dir = dir.to_path_buf();
        let handle =
            std::thread::spawn(move || serve(&dir, listener, shutdown, opts).unwrap());
        (addr, handle)
    }

    fn connect(addr: &str) -> TcpStream {
        let hostport = addr.strip_prefix("tcp:").unwrap();
        let s = TcpStream::connect(hostport).unwrap();
        s.set_nodelay(true).unwrap();
        s
    }

    #[test]
    fn drain_equivalence_with_batch_baseline() {
        let root = tmp_dir("drain");
        let serve_dir = root.join("serve");
        let events = workload(300);
        let opts = small_opts();
        let baseline = baseline_merged(&root.join("baseline"), &events, &opts);

        let (addr, daemon) = spawn_daemon(&serve_dir, opts, CancelToken::new());
        let mut client = Client::hello(connect(&addr), "web-01").unwrap();
        assert_eq!(client.accepted(), 0);
        for batch in events.chunks(37) {
            client.send_events(batch, &Retry::new(8, 1, 4, 7)).unwrap();
        }
        assert_eq!(client.accepted(), events.len() as u64);
        client.drain().unwrap();
        let report = daemon.join().unwrap();
        assert!(report.all_clean(), "{report:?}");
        assert_eq!(report.sources.len(), 1);
        let merged = report.sources[0].merged.clone().unwrap();
        assert_eq!(
            fs::read(merged).unwrap(),
            baseline,
            "drained daemon must be byte-identical to the batch baseline"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn busy_shedding_loses_no_acknowledged_events() {
        let root = tmp_dir("busy");
        let serve_dir = root.join("serve");
        let events = workload(200);
        let mut opts = small_opts();
        // Shed every 3rd frame spuriously; the client must retry its
        // way through with zero acknowledged loss.
        opts.faults = FaultPlan::net_fault_every(3);
        let baseline = baseline_merged(&root.join("baseline"), &events, &opts);

        let (addr, daemon) = spawn_daemon(&serve_dir, opts, CancelToken::new());
        let mut client = Client::hello(connect(&addr), "busy-src").unwrap();
        for batch in events.chunks(23) {
            client.send_events(batch, &Retry::new(16, 1, 4, 9)).unwrap();
        }
        client.drain().unwrap();
        let report = daemon.join().unwrap();
        assert!(report.all_clean(), "{report:?}");
        assert!(report.busy_responses > 0, "the fault plan must have shed frames");
        let merged = report.sources[0].merged.clone().unwrap();
        assert_eq!(fs::read(merged).unwrap(), baseline);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn garbage_connection_is_quarantined_daemon_survives() {
        let root = tmp_dir("quarantine");
        let serve_dir = root.join("serve");
        let events = workload(60);
        let opts = small_opts();
        let baseline = baseline_merged(&root.join("baseline"), &events, &opts);

        let (addr, daemon) = spawn_daemon(&serve_dir, opts, CancelToken::new());
        // A connection speaking the wrong protocol is refused and cut.
        {
            let mut bad = connect(&addr);
            bad.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            let mut reply = Vec::new();
            let _ = bad.read_to_end(&mut reply); // server closes after the ERR frame
            assert!(!reply.is_empty(), "expected a typed protocol error frame");
        }
        // A well-behaved client on a fresh connection is unaffected.
        let mut client = Client::hello(connect(&addr), "good").unwrap();
        for batch in events.chunks(19) {
            client.send_events(batch, &Retry::new(8, 1, 4, 3)).unwrap();
        }
        client.drain().unwrap();
        let report = daemon.join().unwrap();
        assert!(report.quarantined >= 1, "{report:?}");
        assert!(report.all_clean(), "{report:?}");
        let merged = report.sources[0].merged.clone().unwrap();
        assert_eq!(fs::read(merged).unwrap(), baseline);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn watchdog_fails_wedged_source_in_isolation() {
        let root = tmp_dir("wedge");
        let serve_dir = root.join("serve");
        let mut opts = small_opts();
        // Every seal sleeps 400 ms; the watchdog deadline is 80 ms, so
        // the first seal wedges and the source is failed in isolation.
        opts.faults = FaultPlan::delay(400);
        opts.wedge_ms = 80;
        let (addr, daemon) = spawn_daemon(&serve_dir, opts, CancelToken::new());
        let mut client = Client::hello(connect(&addr), "wedged").unwrap();
        let events = workload(300);
        let mut failed = false;
        for batch in events.chunks(64) {
            match client.send_events(batch, &Retry::new(4, 1, 4, 5)) {
                Ok(_) => {}
                Err(NetError::Remote { code, .. }) => {
                    assert_eq!(code, ERR_SOURCE_FAILED);
                    failed = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(failed, "the wedged seal must surface as a source failure");
        // The daemon still accepts and drains a healthy source.
        let mut ok_client = Client::hello(connect(&addr), "healthy").unwrap();
        ok_client
            .send_events(
                &[
                    WppEvent::Enter(FuncId::from_index(0)),
                    WppEvent::Block(BlockId::new(1)),
                    WppEvent::Exit,
                ],
                &Retry::new(8, 1, 4, 11),
            )
            .unwrap();
        ok_client.drain().unwrap();
        let report = daemon.join().unwrap();
        assert!(!report.all_clean());
        let wedged = report.sources.iter().find(|s| s.name == "wedged").unwrap();
        assert!(wedged.failed.is_some());
        let healthy = report.sources.iter().find(|s| s.name == "healthy").unwrap();
        assert!(healthy.failed.is_none());
        assert!(healthy.merged.is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn cancel_token_drains_like_a_drain_frame() {
        let root = tmp_dir("cancel");
        let serve_dir = root.join("serve");
        let events = workload(120);
        let opts = small_opts();
        let baseline = baseline_merged(&root.join("baseline"), &events, &opts);
        let shutdown = CancelToken::new();
        let (addr, daemon) = spawn_daemon(&serve_dir, opts, shutdown.clone());
        let mut client = Client::hello(connect(&addr), "sig").unwrap();
        for batch in events.chunks(31) {
            client.send_events(batch, &Retry::new(8, 1, 4, 13)).unwrap();
        }
        // SIGTERM stand-in: cancel the token instead of sending Drain.
        shutdown.cancel();
        let report = daemon.join().unwrap();
        assert!(report.all_clean(), "{report:?}");
        let merged = report.sources[0].merged.clone().unwrap();
        assert_eq!(fs::read(merged).unwrap(), baseline);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn tailed_file_is_ingested_and_drained() {
        let root = tmp_dir("tail");
        let serve_dir = root.join("serve");
        let events = workload(150);
        let opts = small_opts();
        let baseline = baseline_merged(&root.join("baseline"), &events, &opts);

        // Write a raw .wpp file (with footer) to tail.
        let wpp = twpp_tracer::raw::RawWpp::from_events(&events);
        let tail_path = root.join("feed-a.wpp");
        let mut buf = Vec::new();
        wpp.write_to(&mut buf).unwrap();
        fs::write(&tail_path, &buf).unwrap();

        let mut opts2 = opts.clone();
        opts2.tails = vec![tail_path];
        let shutdown = CancelToken::new();
        let (_addr, daemon) = spawn_daemon(&serve_dir, opts2, shutdown.clone());
        // Give the tail a moment to reach EOF, then drain.
        std::thread::sleep(Duration::from_millis(150));
        shutdown.cancel();
        let report = daemon.join().unwrap();
        assert!(report.all_clean(), "{report:?}");
        let src = report.sources.iter().find(|s| s.name == "feed-a").unwrap();
        assert_eq!(src.events, events.len() as u64);
        let merged = src.merged.clone().unwrap();
        assert_eq!(fs::read(merged).unwrap(), baseline);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn reconnect_resumes_from_durable_position() {
        let root = tmp_dir("reconnect");
        let serve_dir = root.join("serve");
        let events = workload(200);
        let opts = small_opts();
        let baseline = baseline_merged(&root.join("baseline"), &events, &opts);
        let (addr, daemon) = spawn_daemon(&serve_dir, opts, CancelToken::new());

        // First connection feeds half, then vanishes without closing
        // cleanly.
        let half = events.len() / 2;
        {
            let mut c1 = Client::hello(connect(&addr), "re").unwrap();
            for batch in events[..half].chunks(29) {
                c1.send_events(batch, &Retry::new(8, 1, 4, 17)).unwrap();
            }
        }
        // Second connection learns the durable position from Hello and
        // replays from a safe earlier point; dedup keeps it exactly-once.
        let mut c2 = Client::hello(connect(&addr), "re").unwrap();
        let acc = c2.accepted() as usize;
        assert_eq!(acc, half);
        for batch in events[acc..].chunks(41) {
            c2.send_events(batch, &Retry::new(8, 1, 4, 19)).unwrap();
        }
        c2.drain().unwrap();
        let report = daemon.join().unwrap();
        assert!(report.all_clean(), "{report:?}");
        let merged = report.sources[0].merged.clone().unwrap();
        assert_eq!(fs::read(merged).unwrap(), baseline);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn tail_source_names_are_sanitized() {
        assert_eq!(tail_source_name(Path::new("/x/feed-a.wpp")), "feed-a");
        assert_eq!(tail_source_name(Path::new("/x/häßlich name.wpp")), "h__lich_name");
        assert_eq!(tail_source_name(Path::new("/x/.hidden")), "t.hidden");
    }

    /// Spawns a daemon with the admin plane up; returns
    /// (ingest addr, admin addr, join-handle).
    fn spawn_admin_daemon(
        dir: &Path,
        opts: ServeOptions,
        shutdown: CancelToken,
    ) -> (String, String, std::thread::JoinHandle<ServeReport>) {
        let listener = ServeListener::bind("tcp:127.0.0.1:0").unwrap();
        let admin = ServeListener::bind("tcp:127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let admin_addr = admin.local_addr();
        let dir = dir.to_path_buf();
        let handle = std::thread::spawn(move || {
            serve_with_admin(&dir, listener, Some(admin), shutdown, opts).unwrap()
        });
        (addr, admin_addr, handle)
    }

    /// Golden schema check for one /status document (schema v1).
    fn assert_status_schema(text: &str) -> crate::obs::Json {
        let doc = crate::obs::parse_json(text).unwrap();
        assert_eq!(
            doc.get("status_schema_version").unwrap().as_num().unwrap(),
            STATUS_SCHEMA_VERSION as f64
        );
        assert_eq!(doc.get("command").unwrap().as_str().unwrap(), "serve-ingest");
        for key in [
            "uptime_ms",
            "connections_total",
            "frames_total",
            "busy_total",
            "quarantined_total",
        ] {
            assert!(doc.get(key).unwrap().as_num().is_some(), "{key} must be a number");
        }
        assert!(doc.get("draining").unwrap().as_bool().is_some());
        for s in doc.get("sources").unwrap().as_arr().unwrap() {
            assert!(s.get("name").unwrap().as_str().is_some());
            for key in [
                "durable_events",
                "window_events",
                "segments",
                "last_seal_ms",
                "events_per_sec",
                "in_op_ms",
            ] {
                assert!(s.get(key).unwrap().as_num().is_some(), "{key} must be a number");
            }
            assert!(s.get("failed").unwrap().as_bool().is_some());
            assert!(s.get("failure").is_some());
        }
        doc
    }

    #[test]
    fn admin_plane_serves_metrics_status_and_healthz() {
        let root = tmp_dir("admin");
        let serve_dir = root.join("serve");
        let mut opts = small_opts();
        opts.obs = Obs::collecting();
        opts.flightrec = Some(Arc::new(FlightRecorder::new(64)));
        let events = workload(200);
        let (addr, admin, daemon) = spawn_admin_daemon(&serve_dir, opts, CancelToken::new());

        let mut client = Client::hello(connect(&addr), "adm-src").unwrap();
        for batch in events.chunks(37) {
            client.send_events(batch, &Retry::new(8, 1, 4, 7)).unwrap();
        }

        // /healthz while serving.
        let (code, body) = crate::net::http_get(&admin, "/healthz").unwrap();
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        // /metrics parses under the strict exposition parser.
        let (code, text) = crate::net::http_get(&admin, "/metrics").unwrap();
        assert_eq!(code, 200);
        let families = crate::obs::parse_prometheus_text(&text).unwrap();
        assert!(
            families.iter().any(|f| f.name == "twpp_core_ingest_events_total"),
            "ingest counters must be live: {text}"
        );
        assert!(
            families.iter().any(|f| f.name == "twpp_core_ingest_wal_append_us"
                && f.kind == "histogram"),
            "latency histograms must be exposed"
        );
        // /status matches the golden schema and reflects the source.
        let (code, status) = crate::net::http_get(&admin, "/status").unwrap();
        assert_eq!(code, 200);
        let doc = assert_status_schema(&status);
        let sources = doc.get("sources").unwrap().as_arr().unwrap().to_vec();
        assert_eq!(sources.len(), 1);
        let s = &sources[0];
        assert_eq!(s.get("name").unwrap().as_str().unwrap(), "adm-src");
        assert_eq!(
            s.get("durable_events").unwrap().as_num().unwrap(),
            events.len() as f64
        );
        assert!(!s.get("failed").unwrap().as_bool().unwrap());
        // Unknown paths 404; the daemon keeps serving.
        let (code, _) = crate::net::http_get(&admin, "/nope").unwrap();
        assert_eq!(code, 404);

        client.drain().unwrap();
        let report = daemon.join().unwrap();
        assert!(report.all_clean(), "{report:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn status_scrape_never_waits_on_a_held_compactor_lock() {
        let root = tmp_dir("scrape");
        let serve_dir = root.join("serve");
        let mut opts = small_opts();
        // Every seal sleeps 300 ms with the compactor mutex held; the
        // watchdog deadline is far away, so the source stays healthy
        // and busy. Scrapes must not queue behind that lock.
        opts.faults = FaultPlan::delay(300);
        opts.wedge_ms = 60_000;
        let (addr, admin, daemon) = spawn_admin_daemon(&serve_dir, opts, CancelToken::new());

        let events = workload(400);
        let feeder = std::thread::spawn(move || {
            let mut client = Client::hello(connect(&addr), "slow").unwrap();
            for batch in events.chunks(64) {
                let _ = client.send_events(batch, &Retry::new(16, 1, 4, 21));
            }
            let _ = client.drain();
        });
        // Scrape repeatedly while seals are sleeping on the lock.
        for _ in 0..10 {
            let begin = Instant::now();
            let (code, status) = crate::net::http_get(&admin, "/status").unwrap();
            assert_eq!(code, 200);
            assert_status_schema(&status);
            assert!(
                begin.elapsed() < Duration::from_millis(250),
                "a /status scrape must not block on the compactor ({}ms)",
                begin.elapsed().as_millis()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        feeder.join().unwrap();
        daemon.join().unwrap();
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn watchdog_failure_dumps_a_parseable_flight_recorder() {
        let root = tmp_dir("flightrec");
        let serve_dir = root.join("serve");
        let mut opts = small_opts();
        opts.faults = FaultPlan::delay(400);
        opts.wedge_ms = 80;
        opts.flightrec = Some(Arc::new(FlightRecorder::new(128)));
        let (addr, admin, daemon) = spawn_admin_daemon(&serve_dir, opts, CancelToken::new());
        let mut client = Client::hello(connect(&addr), "doomed").unwrap();
        let events = workload(300);
        for batch in events.chunks(64) {
            if client.send_events(batch, &Retry::new(4, 1, 4, 5)).is_err() {
                break;
            }
        }
        // Wait until the watchdog flags the source in /status.
        let mut flagged = false;
        for _ in 0..100 {
            let (_, status) = crate::net::http_get(&admin, "/status").unwrap();
            let doc = assert_status_schema(&status);
            let sources = doc.get("sources").unwrap().as_arr().unwrap().to_vec();
            if sources.iter().any(|s| s.get("failed").unwrap().as_bool() == Some(true)) {
                flagged = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        assert!(flagged, "/status must flag the wedged source");
        // A wedged source means /healthz degrades.
        let (code, body) = crate::net::http_get(&admin, "/healthz").unwrap();
        assert_eq!((code, body.as_str()), (503, "degraded\n"));
        // The dump is on disk and parseable, with the failure recorded.
        let dumps: Vec<PathBuf> = fs::read_dir(&serve_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("flightrec-") && n.ends_with(".json"))
            })
            .collect();
        assert!(!dumps.is_empty(), "watchdog failure must dump the flight recorder");
        let doc = crate::obs::parse_json(&fs::read_to_string(&dumps[0]).unwrap()).unwrap();
        assert_eq!(doc.get("flightrec_version").unwrap().as_num().unwrap(), 1.0);
        let records = doc.get("records").unwrap().as_arr().unwrap().to_vec();
        assert!(!records.is_empty());
        assert!(
            records.iter().any(|r| r.get("op").unwrap().as_str() == Some("failed")),
            "the failure itself must be the ring's last act"
        );
        drop(client);
        let mut ok = Client::hello(connect(&addr), "healthy").unwrap();
        ok.send_events(
            &[
                WppEvent::Enter(FuncId::from_index(0)),
                WppEvent::Block(BlockId::new(1)),
                WppEvent::Exit,
            ],
            &Retry::new(8, 1, 4, 11),
        )
        .unwrap();
        ok.drain().unwrap();
        let report = daemon.join().unwrap();
        assert!(!report.all_clean());
        let _ = fs::remove_dir_all(&root);
    }
}
