//! The multi-tenant query daemon behind `twpp serve`.
//!
//! A threaded server over one [`Fleet`]: every connection gets a worker
//! thread speaking the framed [`twpp::net`] protocol, every request a
//! [`Budget`] derived from the server's defaults and the request's
//! [`BudgetSpec`] override, and every answer one of the four governed
//! outcomes — `Answer{complete}`, `Answer{partial, coverage}`, `Busy`,
//! or a typed `Error`. The failure edges mirror the ingest daemon
//! (DESIGN.md §17): garbage framing quarantines one connection, never
//! the daemon; admission past `max_inflight` is shed with `Busy`; an
//! archive failing mid-read fails that request in isolation.
//!
//! The fleet root is rescanned every `rescan_ms` from the accept loop,
//! so archives added or removed while the daemon runs appear or vanish
//! without a restart — with both caches invalidated per retired uid
//! (see [`Fleet::rescan`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use twpp::gov::{Budget, CancelToken, Limits};
use twpp::ingest::{ConnStream, ServeListener};
use twpp::net::{
    http_read_request_path, http_write_response, Frame, FramedStream, NetError,
    ERR_BAD_REQUEST, ERR_DEGRADED, ERR_DRAINING, ERR_PROTOCOL, ERR_SOURCE_FAILED,
    ERR_UNKNOWN_ARCHIVE,
};
use twpp::net::BudgetSpec;
use twpp::obs::{JsonWriter, Obs};

use crate::answer::{
    answer_currency_req, answer_query_req, answer_slice_req, AnswerError,
};
use crate::fleet::{Fleet, Tenant, DEFAULT_SUMMARY_CACHE_BYTES};

/// The version of the serve daemon's `/status` JSON document.
pub const SERVE_STATUS_SCHEMA_VERSION: u64 = 1;

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
    fleet: Fleet,
    opts: ServeOptions,
    start: Instant,
    draining: AtomicBool,
    inflight: AtomicU64,
    connections: AtomicU64,
    requests: AtomicU64,
    answers: AtomicU64,
    partial: AtomicU64,
    errors: AtomicU64,
    busy: AtomicU64,
    quarantined: AtomicU64,
}

impl Registry {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
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
        self.busy.fetch_add(1, Ordering::SeqCst);
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

/// One connection's lifecycle: stateless request/reply frames until
/// close, drain, or quarantine.
fn handle_conn(registry: &Registry, stream: Box<dyn ConnStream>) {
    registry.connections.fetch_add(1, Ordering::SeqCst);
    let mut framed = FramedStream::new(stream);
    loop {
        if registry.draining() {
            let _ = framed.send(&Frame::Error {
                code: ERR_DRAINING,
                message: "server is draining".into(),
            });
            return;
        }
        let frame = match framed.recv_step() {
            Ok(None) => continue,
            Ok(Some(frame)) => frame,
            Err(NetError::Closed) | Err(NetError::Io(_)) => return,
            Err(garbage) => {
                // Torn, oversized or corrupt framing: quarantine this
                // connection with a typed refusal; the daemon lives on.
                let _ = framed.send(&Frame::Error {
                    code: ERR_PROTOCOL,
                    message: garbage.to_string(),
                });
                registry.quarantined.fetch_add(1, Ordering::SeqCst);
                return;
            }
        };
        // Admission control: shed rather than queue when the daemon is
        // already answering `max_inflight` requests.
        let admitted = {
            let prev = registry.inflight.fetch_add(1, Ordering::SeqCst);
            prev < registry.opts.max_inflight
        };
        let reply = if admitted {
            registry.handle_request(&frame)
        } else {
            registry.busy_reply()
        };
        registry.inflight.fetch_sub(1, Ordering::SeqCst);
        let quarantine = matches!(reply, Frame::Error { code: ERR_PROTOCOL, .. });
        if framed.send(&reply).is_err() {
            return;
        }
        if quarantine {
            registry.quarantined.fetch_add(1, Ordering::SeqCst);
            return;
        }
    }
}

/// Builds the `/status` document. Reads only atomics, the tenant map
/// lock and cache stats — never blocks on an in-flight request.
fn status_json(registry: &Registry) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("status_schema_version");
    w.uint(SERVE_STATUS_SCHEMA_VERSION);
    w.key("command");
    w.string("serve");
    w.key("uptime_ms");
    w.uint(registry.start.elapsed().as_millis() as u64);
    w.key("draining");
    w.boolean(registry.draining());
    w.key("connections_total");
    w.uint(registry.connections.load(Ordering::SeqCst));
    w.key("requests_total");
    w.uint(registry.requests.load(Ordering::SeqCst));
    w.key("answers_total");
    w.uint(registry.answers.load(Ordering::SeqCst));
    w.key("partial_total");
    w.uint(registry.partial.load(Ordering::SeqCst));
    w.key("errors_total");
    w.uint(registry.errors.load(Ordering::SeqCst));
    w.key("busy_total");
    w.uint(registry.busy.load(Ordering::SeqCst));
    w.key("quarantined_total");
    w.uint(registry.quarantined.load(Ordering::SeqCst));
    for (key, stats) in [
        ("frame_cache", registry.fleet.frame_cache().stats()),
        ("summary_cache", registry.fleet.summary_stats()),
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
    for t in registry.fleet.list() {
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
    for (name, why) in registry.fleet.open_failures() {
        w.begin_object();
        w.key("name");
        w.string(&name);
        w.key("error");
        w.string(&why);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Serves one admin-plane request: parse the GET line, route, reply,
/// close.
fn handle_admin_conn(registry: &Registry, mut stream: Box<dyn ConnStream>) {
    let path = match http_read_request_path(&mut stream) {
        Ok(p) => p,
        Err(_) => {
            let _ =
                http_write_response(&mut stream, 400, "Bad Request", "text/plain", b"bad request\n");
            return;
        }
    };
    let result = match path.as_str() {
        "/metrics" => {
            // Gauges are refreshed per scrape so an idle daemon still
            // exposes a non-empty, parseable document.
            let obs = &registry.opts.obs;
            obs.gauge("twpp_serve_uptime_ms", "Milliseconds since daemon start")
                .set(registry.start.elapsed().as_millis() as i64);
            obs.gauge("twpp_serve_archives", "Archives currently registered")
                .set(registry.fleet.len() as i64);
            obs.gauge("twpp_serve_inflight", "Requests currently being answered")
                .set(registry.inflight.load(Ordering::SeqCst) as i64);
            obs.gauge(
                "twpp_serve_frame_cache_resident_bytes",
                "Decoded frame bytes resident in the shared cache",
            )
            .set(registry.fleet.frame_cache().resident_bytes() as i64);
            obs.gauge(
                "twpp_serve_summary_cache_resident_bytes",
                "Answer summary bytes resident in the cache",
            )
            .set(registry.fleet.summary_stats().resident_bytes as i64);
            http_write_response(
                &mut stream,
                200,
                "OK",
                "text/plain; version=0.0.4",
                obs.prometheus_text().as_bytes(),
            )
        }
        "/status" => http_write_response(
            &mut stream,
            200,
            "OK",
            "application/json",
            status_json(registry).as_bytes(),
        ),
        "/healthz" => {
            let (status, reason, body) = if registry.draining() {
                (503, "Service Unavailable", &b"draining\n"[..])
            } else {
                (200, "OK", &b"ok\n"[..])
            };
            http_write_response(&mut stream, status, reason, "text/plain", body)
        }
        _ => http_write_response(&mut stream, 404, "Not Found", "text/plain", b"not found\n"),
    };
    let _ = result;
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
    let fleet = Fleet::new(root, opts.frame_cache_bytes, opts.summary_cache_bytes, opts.obs.clone());
    fleet.rescan().map_err(|e| ServeError::Root(format!("{}: {e}", root.display())))?;
    let registry = Registry {
        fleet,
        opts,
        start: Instant::now(),
        draining: AtomicBool::new(false),
        inflight: AtomicU64::new(0),
        connections: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        answers: AtomicU64::new(0),
        partial: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        busy: AtomicU64::new(0),
        quarantined: AtomicU64::new(0),
    };
    listener
        .set_nonblocking()
        .map_err(|e| ServeError::Io(e.to_string()))?;
    if let Some(a) = &admin {
        a.set_nonblocking().map_err(|e| ServeError::Io(e.to_string()))?;
    }

    let poll = Duration::from_millis(registry.opts.poll_ms.max(1));
    let rescan_every = Duration::from_millis(registry.opts.rescan_ms.max(1));
    let admin_done = AtomicBool::new(false);
    let report = std::thread::scope(|scope| {
        if let Some(admin_listener) = admin {
            let r = &registry;
            let done = &admin_done;
            scope.spawn(move || {
                let tick = Duration::from_millis(250);
                while !done.load(Ordering::SeqCst) {
                    match admin_listener.accept(tick) {
                        Ok(Some(stream)) => handle_admin_conn(r, stream),
                        Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                        Err(_) => std::thread::sleep(tick),
                    }
                }
            });
        }

        let mut workers = Vec::new();
        let mut last_rescan = Instant::now();
        while !shutdown.is_cancelled() {
            if last_rescan.elapsed() >= rescan_every {
                last_rescan = Instant::now();
                // A transiently unlistable root is not fatal mid-run;
                // the registry keeps serving the archives it has.
                let _ = registry.fleet.rescan();
            }
            match listener.accept(poll) {
                Ok(Some(stream)) => {
                    let r = &registry;
                    workers.push(scope.spawn(move || handle_conn(r, stream)));
                }
                Ok(None) => std::thread::sleep(poll),
                Err(_) => std::thread::sleep(poll),
            }
        }
        registry.draining.store(true, Ordering::SeqCst);
        drop(listener);
        for w in workers {
            let _ = w.join();
        }
        admin_done.store(true, Ordering::SeqCst);
        ServeReport {
            connections: registry.connections.load(Ordering::SeqCst),
            requests: registry.requests.load(Ordering::SeqCst),
            answers: registry.answers.load(Ordering::SeqCst),
            partial: registry.partial.load(Ordering::SeqCst),
            errors: registry.errors.load(Ordering::SeqCst),
            busy: registry.busy.load(Ordering::SeqCst),
            quarantined: registry.quarantined.load(Ordering::SeqCst),
            archives: registry.fleet.len() as u64,
        }
    });
    Ok(report)
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
        let fleet =
            Fleet::new(root, opts.frame_cache_bytes, opts.summary_cache_bytes, opts.obs.clone());
        fleet
            .rescan()
            .map_err(|e| ServeError::Root(format!("{}: {e}", root.display())))?;
        Ok(InProcServer {
            registry: Registry {
                fleet,
                opts,
                start: Instant::now(),
                draining: AtomicBool::new(false),
                inflight: AtomicU64::new(0),
                connections: AtomicU64::new(0),
                requests: AtomicU64::new(0),
                answers: AtomicU64::new(0),
                partial: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                busy: AtomicU64::new(0),
                quarantined: AtomicU64::new(0),
            },
        })
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
