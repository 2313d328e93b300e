//! The multi-tenant query daemon behind `twpp serve`.
//!
//! A [`twpp::daemon::Handler`] over one [`Fleet`]: the shared skeleton
//! gives every connection a worker thread speaking the framed
//! [`twpp::net`] protocol; this handler gives every request a
//! [`Budget`] derived from the server's defaults and the request's
//! [`BudgetSpec`] override, and every answer one of the four governed
//! outcomes — `Answer{complete}`, `Answer{partial, coverage}`, `Busy`,
//! or a typed `Error`. The failure edges are the skeleton's (DESIGN.md
//! §17): garbage framing quarantines one connection, never the daemon;
//! admission past `max_inflight` is shed with `Busy`; an archive
//! failing mid-read fails that request in isolation; only
//! `ERR_PROTOCOL` replies quarantine.
//!
//! The fleet root is rescanned every `rescan_ms` from the accept loop's
//! tick, so archives added or removed while the daemon runs appear or
//! vanish without a restart — with both caches invalidated per retired
//! uid (see [`Fleet::rescan`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use twpp::daemon::{self, After, Core, Handler, ServeListener};
use twpp::gov::{Budget, CancelToken, Limits, Retry};
use twpp::net::BudgetSpec;
use twpp::net::{
    Frame, ERR_BAD_REQUEST, ERR_DEGRADED, ERR_PROTOCOL, ERR_SOURCE_FAILED, ERR_UNKNOWN_ARCHIVE,
};
use twpp::obs::{JsonWriter, Obs};

use crate::answer::{
    answer_currency_req, answer_query_req, answer_slice_req, AnswerError,
};
use crate::fleet::{Fleet, Tenant, DEFAULT_SUMMARY_CACHE_BYTES};

/// Options for a [`serve`] run.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Default per-request wall-clock deadline in ms (0 = unlimited).
    /// A request's [`BudgetSpec::deadline_ms`] overrides it when
    /// non-zero.
    pub default_deadline_ms: u64,
    /// Fleet-root rescan interval in ms.
    pub rescan_ms: u64,
    /// Poll interval for the accept loop and connection reads, in ms.
    pub poll_ms: u64,
    /// Maximum requests being answered at once; admission past this is
    /// shed with `Busy`.
    pub max_inflight: u64,
    /// The retry-after hint attached to `Busy` replies, in ms.
    pub retry_after_ms: u64,
    /// Whether to serve repeated requests from the answer-summary
    /// cache. Off means every request is solved from the archive.
    pub cache_answers: bool,
    /// Byte cap of the shared decoded-frame cache.
    pub frame_cache_bytes: u64,
    /// Byte cap of the answer-summary cache.
    pub summary_cache_bytes: u64,
    /// Observability sink (`twpp_serve_*` metrics).
    pub obs: Obs,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            default_deadline_ms: 0,
            rescan_ms: 1_000,
            poll_ms: 20,
            max_inflight: 64,
            retry_after_ms: 50,
            cache_answers: true,
            frame_cache_bytes: twpp::DEFAULT_FRAME_CACHE_BYTES,
            summary_cache_bytes: DEFAULT_SUMMARY_CACHE_BYTES,
            obs: Obs::noop(),
        }
    }
}

/// What a finished [`serve`] run did.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: u64,
    /// Request frames handled.
    pub requests: u64,
    /// Answers sent (complete or partial).
    pub answers: u64,
    /// Partial answers among them.
    pub partial: u64,
    /// Typed `Error` replies sent.
    pub errors: u64,
    /// `Busy` replies sent (admission shed or pre-work exhaustion).
    pub busy: u64,
    /// Connections quarantined for protocol violations.
    pub quarantined: u64,
    /// Archives registered when the daemon stopped.
    pub archives: u64,
}

/// Errors starting or running the daemon.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ServeError {
    /// The fleet root is missing or unlistable.
    Root(String),
    /// A listener could not be bound or polled.
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Root(m) => write!(f, "fleet root: {m}"),
            ServeError::Io(m) => write!(f, "serve I/O: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Shared state of one daemon run.
struct Registry {
    core: Core,
    fleet: Fleet,
    opts: ServeOptions,
    /// Uptime at which the accept loop's tick rescans the fleet root.
    next_rescan_ms: AtomicU64,
    inflight: AtomicU64,
    requests: AtomicU64,
    answers: AtomicU64,
    partial: AtomicU64,
    errors: AtomicU64,
}

impl Registry {
    /// Scans `root` into a fleet and builds the daemon state.
    fn open(root: &std::path::Path, opts: ServeOptions) -> Result<Registry, ServeError> {
        let fleet =
            Fleet::new(root, opts.frame_cache_bytes, opts.summary_cache_bytes, opts.obs.clone());
        fleet
            .rescan()
            .map_err(|e| ServeError::Root(format!("{}: {e}", root.display())))?;
        Ok(Registry {
            core: Core::new(opts.poll_ms, Retry::none(), opts.obs.clone()),
            fleet,
            next_rescan_ms: AtomicU64::new(opts.rescan_ms.max(1)),
            opts,
            inflight: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            answers: AtomicU64::new(0),
            partial: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    /// The effective [`Budget`] for a request: the spec's non-zero
    /// fields override the server defaults.
    fn budget_for(&self, spec: BudgetSpec) -> Budget {
        let deadline = if spec.deadline_ms > 0 {
            spec.deadline_ms
        } else {
            self.opts.default_deadline_ms
        };
        let mut limits = Limits::new();
        if deadline > 0 {
            limits = limits.deadline_ms(deadline);
        }
        if spec.max_steps > 0 {
            limits = limits.max_steps(spec.max_steps);
        }
        limits.start()
    }

    fn busy_reply(&self) -> Frame {
        Frame::Busy { retry_after_ms: self.opts.retry_after_ms }
    }

    fn error_reply(&self, code: u32, message: String) -> Frame {
        self.errors.fetch_add(1, Ordering::SeqCst);
        Frame::Error { code, message }
    }

    fn tenant(&self, name: &str) -> Result<Arc<Tenant>, Frame> {
        self.fleet.get(name).ok_or_else(|| {
            self.errors.fetch_add(1, Ordering::SeqCst);
            Frame::Error {
                code: ERR_UNKNOWN_ARCHIVE,
                message: format!("archive {name:?} is not in the served fleet"),
            }
        })
    }

    /// Answers one solvable request (`Query`/`Slice`/`Currency`).
    /// `frame` is the request as received — its encoding (which
    /// includes the budget spec) keys the summary cache.
    fn solve(&self, frame: &Frame, archive: &str, spec: BudgetSpec) -> Frame {
        let tenant = match self.tenant(archive) {
            Ok(t) => t,
            Err(reply) => return reply,
        };
        let uid = tenant.archive.archive_uid();
        let key = Fleet::summary_key(uid, frame);
        if self.opts.cache_answers {
            if let Some(hit) = self.fleet.summary_lookup(&key) {
                self.count_answer(&hit);
                return Frame::Answer(Box::new((*hit).clone()));
            }
        }
        let budget = self.budget_for(spec);
        let _span = self.opts.obs.span("serve_request");
        let solved = match frame {
            Frame::Query { req, .. } => answer_query_req(&tenant.archive, req, &budget),
            Frame::Slice { req, .. } => answer_slice_req(&tenant.archive, req, &budget),
            Frame::Currency { req, .. } => answer_currency_req(&tenant.archive, req, &budget),
            _ => unreachable!("solve() is only called for solvable requests"),
        };
        match solved {
            Ok(answer) => {
                // Cache only deterministic answers: complete ones, and
                // step-limited partials (a wall-clock partial would pin
                // a timing accident into every later reply).
                let deterministic = answer.complete || answer.stop_code == 2;
                let answer = Arc::new(answer);
                let answer = if self.opts.cache_answers && deterministic {
                    self.fleet.summary_insert(&key, answer)
                } else {
                    answer
                };
                self.count_answer(&answer);
                Frame::Answer(Box::new((*answer).clone()))
            }
            Err(AnswerError::Stopped(_)) => self.busy_reply(),
            Err(AnswerError::BadRequest(m)) => self.error_reply(ERR_BAD_REQUEST, m),
            Err(AnswerError::Degraded(m)) => self.error_reply(ERR_DEGRADED, m),
            Err(AnswerError::Archive(m)) => self.error_reply(ERR_SOURCE_FAILED, m),
        }
    }

    fn count_answer(&self, answer: &twpp::net::Answer) {
        self.answers.fetch_add(1, Ordering::SeqCst);
        if !answer.complete {
            self.partial.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Routes one request frame to its reply.
    fn handle_request(&self, frame: &Frame) -> Frame {
        self.requests.fetch_add(1, Ordering::SeqCst);
        if self.opts.obs.is_enabled() {
            self.opts
                .obs
                .counter("twpp_serve_requests_total", "Serve requests handled")
                .inc();
        }
        match frame {
            Frame::Query { req, budget } => self.solve(frame, &req.archive, *budget),
            Frame::Slice { req, budget } => self.solve(frame, &req.archive, *budget),
            Frame::Currency { req, budget } => self.solve(frame, &req.archive, *budget),
            Frame::ListArchives => Frame::Archives {
                entries: self.fleet.list().iter().map(|t| t.stat()).collect(),
            },
            Frame::Stat { archive } => match self.tenant(archive) {
                Ok(t) => Frame::Archives { entries: vec![t.stat()] },
                Err(reply) => reply,
            },
            // Ingest verbs and reply frames are protocol violations on
            // a query server; the connection is quarantined.
            Frame::Hello { .. } | Frame::Events { .. } | Frame::Seal | Frame::Drain => self
                .error_reply(
                    ERR_PROTOCOL,
                    "ingest frame sent to a query server".into(),
                ),
            Frame::Ok { .. }
            | Frame::Busy { .. }
            | Frame::Error { .. }
            | Frame::Answer(_)
            | Frame::Archives { .. } => {
                self.error_reply(ERR_PROTOCOL, "reply frame sent by client".into())
            }
        }
    }
}

impl Handler for Registry {
    type Conn = ();
    const COMMAND: &'static str = "serve";

    fn core(&self) -> &Core {
        &self.core
    }

    fn open(&self) {}

    /// Stateless request/reply: admission control, then the route.
    fn frame(&self, _conn: &mut (), frame: Frame) -> (Frame, After) {
        // Admission control: shed rather than queue when the daemon is
        // already answering `max_inflight` requests.
        let admitted = self.inflight.fetch_add(1, Ordering::SeqCst) < self.opts.max_inflight;
        let reply = if admitted {
            self.handle_request(&frame)
        } else {
            self.busy_reply()
        };
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        let after = if matches!(reply, Frame::Error { code: ERR_PROTOCOL, .. }) {
            After::Quarantine
        } else {
            After::Continue
        };
        (reply, after)
    }

    /// Rescans the fleet root every `rescan_ms`. A transiently
    /// unlistable root is not fatal mid-run; the registry keeps serving
    /// the archives it has.
    fn tick(&self) {
        // Only the accept loop reads or writes the deadline.
        let now = self.core.uptime_ms();
        if now >= self.next_rescan_ms.load(Ordering::Relaxed) {
            self.next_rescan_ms
                .store(now + self.opts.rescan_ms.max(1), Ordering::Relaxed);
            let _ = self.fleet.rescan();
        }
    }

    /// Request outcomes, both caches, the tenant roster and the open
    /// failures. Reads only atomics, the tenant map lock and cache
    /// stats — never blocks on an in-flight request.
    fn status(&self, w: &mut JsonWriter) {
        for (key, value) in [
            ("requests_total", &self.requests),
            ("answers_total", &self.answers),
            ("partial_total", &self.partial),
            ("errors_total", &self.errors),
        ] {
            w.key(key);
            w.uint(value.load(Ordering::SeqCst));
        }
        for (key, stats) in [
            ("frame_cache", self.fleet.frame_cache().stats()),
            ("summary_cache", self.fleet.summary_stats()),
        ] {
            w.key(key);
            w.begin_object();
            w.key("resident_bytes");
            w.uint(stats.resident_bytes);
            w.key("entries");
            w.uint(stats.entries);
            w.key("hits");
            w.uint(stats.hits);
            w.key("misses");
            w.uint(stats.misses);
            w.key("evictions");
            w.uint(stats.evictions);
            w.key("evicted_bytes");
            w.uint(stats.evicted_bytes);
            w.end_object();
        }
        w.key("archives");
        w.begin_array();
        for t in self.fleet.list() {
            w.begin_object();
            w.key("name");
            w.string(&t.name);
            w.key("functions");
            w.uint(t.archive.function_count() as u64);
            w.key("degraded");
            w.boolean(t.archive.is_degraded());
            w.key("file_bytes");
            w.uint(t.file_bytes);
            w.key("decoded_functions");
            w.uint(t.archive.decoded_count() as u64);
            w.end_object();
        }
        w.end_array();
        w.key("open_failures");
        w.begin_array();
        for (name, why) in self.fleet.open_failures() {
            w.begin_object();
            w.key("name");
            w.string(&name);
            w.key("error");
            w.string(&why);
            w.end_object();
        }
        w.end_array();
    }

    fn refresh_gauges(&self, obs: &Obs) {
        obs.gauge("twpp_serve_uptime_ms", "Milliseconds since daemon start")
            .set(self.core.uptime_ms() as i64);
        obs.gauge("twpp_serve_archives", "Archives currently registered")
            .set(self.fleet.len() as i64);
        obs.gauge("twpp_serve_inflight", "Requests currently being answered")
            .set(self.inflight.load(Ordering::SeqCst) as i64);
        obs.gauge(
            "twpp_serve_frame_cache_resident_bytes",
            "Decoded frame bytes resident in the shared cache",
        )
        .set(self.fleet.frame_cache().resident_bytes() as i64);
        obs.gauge(
            "twpp_serve_summary_cache_resident_bytes",
            "Answer summary bytes resident in the cache",
        )
        .set(self.fleet.summary_stats().resident_bytes as i64);
    }
}

/// Runs the daemon until `shutdown` is cancelled: initial fleet scan,
/// then accept loop with periodic rescans, then drain (stop accepting,
/// join every connection) and report.
///
/// The caller binds the listeners so it can print/persist the actual
/// addresses (`tcp:127.0.0.1:0` picks a free port) before serving.
///
/// # Errors
///
/// [`ServeError::Root`] when the fleet root cannot be listed at
/// startup; [`ServeError::Io`] when a listener cannot be polled.
pub fn serve(
    root: &std::path::Path,
    listener: ServeListener,
    admin: Option<ServeListener>,
    opts: ServeOptions,
    shutdown: &CancelToken,
) -> Result<ServeReport, ServeError> {
    let registry = Registry::open(root, opts)?;
    daemon::run(&registry, listener, admin, shutdown, Vec::new(), || ())
        .map_err(|e| ServeError::Io(e.to_string()))?;
    let core = &registry.core;
    Ok(ServeReport {
        connections: core.connections(),
        requests: registry.requests.load(Ordering::SeqCst),
        answers: registry.answers.load(Ordering::SeqCst),
        partial: registry.partial.load(Ordering::SeqCst),
        errors: registry.errors.load(Ordering::SeqCst),
        busy: core.busy(),
        quarantined: core.quarantined(),
        archives: registry.fleet.len() as u64,
    })
}

/// An in-process handle for answering request frames without a socket —
/// what the `serve-equivalence` conformance check and unit tests drive.
/// Shares every code path with [`serve`] except the transport.
pub struct InProcServer {
    registry: Registry,
}

impl InProcServer {
    /// Scans `root` and builds an in-process server.
    ///
    /// # Errors
    ///
    /// [`ServeError::Root`] when the root cannot be listed.
    pub fn new(root: &std::path::Path, opts: ServeOptions) -> Result<InProcServer, ServeError> {
        Ok(InProcServer { registry: Registry::open(root, opts)? })
    }

    /// Answers one request frame exactly as the daemon would.
    pub fn handle(&self, frame: &Frame) -> Frame {
        self.registry.handle_request(frame)
    }

    /// Rescans the fleet root, as the daemon's timer would.
    ///
    /// # Errors
    ///
    /// `Err` when the root cannot be listed.
    pub fn rescan(&self) -> Result<crate::fleet::ScanDelta, std::io::Error> {
        self.registry.fleet.rescan()
    }

    /// The underlying fleet (for cache assertions in tests).
    pub fn fleet(&self) -> &Fleet {
        &self.registry.fleet
    }
}
