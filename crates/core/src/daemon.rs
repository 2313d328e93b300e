//! **twpp::daemon** — the one skeleton behind `twpp serve-ingest`
//! ([`crate::ingest::serve`]) and `twpp serve` (`twpp_server::serve`).
//!
//! A daemon is a [`Handler`]: it maps a frame and its connection's state
//! to a reply and an [`After`], and writes its own `/status` section and
//! gauges. [`run`] owns the rest: the accept loop, a scoped worker per
//! connection, the connection loop (garbage framing quarantines; a
//! connection still open at drain gets `Error{ERR_DRAINING}`; replies go
//! out under the [`Retry`] policy), the admin plane (`/metrics`,
//! `/status`, `/healthz`, up through Finishing) and the drain state
//! machine (DESIGN.md §17):
//!
//! ```text
//!   Accepting ──(shutdown token | After::Drain)──► Draining
//!   Draining:  listener dropped, connections and tasks joined
//!   Finishing: the caller's finish step (ingest: seal + merge)
//!   Done:      admin plane stopped, the finish step's result returned
//! ```

use std::fs;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

use crate::gov::{CancelToken, Retry};
use crate::ingest::IngestError;
use crate::net::{
    http_read_request_path, http_write_response, Frame, FramedStream, NetError, ERR_DRAINING,
    ERR_PROTOCOL,
};
use crate::obs::{JsonWriter, Obs};

/// The version of the `/status` JSON document both daemons serve.
pub const STATUS_SCHEMA_VERSION: u64 = 1;

/// The admin plane's read timeout and its back-off after a failed
/// accept.
const ADMIN_TICK: Duration = Duration::from_millis(250);

/// A parsed address spec.
enum Addr<'a> {
    Tcp(&'a str),
    #[cfg(unix)]
    Unix(&'a str),
}

/// Parses `unix:PATH`, `tcp:HOST:PORT` or a bare `HOST:PORT`.
fn parse_addr(spec: &str) -> io::Result<Addr<'_>> {
    match spec.strip_prefix("unix:") {
        #[cfg(unix)]
        Some(path) => Ok(Addr::Unix(path)),
        #[cfg(not(unix))]
        Some(path) => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            format!("unix sockets are not supported on this platform: {path}"),
        )),
        None => Ok(Addr::Tcp(spec.strip_prefix("tcp:").unwrap_or(spec))),
    }
}

/// Prefixes an I/O error with the address it concerns.
fn at(addr: &str, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{addr}: {e}"))
}

/// Connects to a daemon at `spec` (`tcp:HOST:PORT`, `unix:PATH`, or a
/// bare `HOST:PORT`). TCP streams are switched to `TCP_NODELAY`: every
/// exchange is one small request and one reply.
///
/// # Errors
///
/// The connect error, prefixed with the address.
pub fn connect(spec: &str) -> io::Result<Box<dyn ConnStream>> {
    match parse_addr(spec)? {
        #[cfg(unix)]
        Addr::Unix(path) => Ok(Box::new(UnixStream::connect(path).map_err(|e| at(path, e))?)),
        Addr::Tcp(addr) => {
            let stream = TcpStream::connect(addr).map_err(|e| at(addr, e))?;
            let _ = stream.set_nodelay(true);
            Ok(Box::new(stream))
        }
    }
}

/// Where a daemon listens.
#[derive(Debug)]
pub enum ServeListener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain socket listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl ServeListener {
    /// Binds from a spec string: `tcp:HOST:PORT` or `unix:PATH`. A bare
    /// `HOST:PORT` is treated as TCP. `tcp:127.0.0.1:0` picks a free
    /// port — read it back with [`ServeListener::local_addr`].
    pub fn bind(spec: &str) -> Result<ServeListener, IngestError> {
        let bind = || -> io::Result<ServeListener> {
            Ok(match parse_addr(spec)? {
                #[cfg(unix)]
                Addr::Unix(path) => {
                    // A socket file left by an earlier run blocks the bind.
                    if Path::new(path).exists() {
                        fs::remove_file(path).map_err(|e| at(path, e))?;
                    }
                    ServeListener::Unix(UnixListener::bind(path).map_err(|e| at(path, e))?)
                }
                Addr::Tcp(addr) => {
                    ServeListener::Tcp(TcpListener::bind(addr).map_err(|e| at(addr, e))?)
                }
            })
        };
        bind().map_err(|e| IngestError::Io(e.to_string()))
    }

    /// The bound address, printable for `--port-file` / logs.
    pub fn local_addr(&self) -> String {
        match self {
            ServeListener::Tcp(l) => l
                .local_addr()
                .map_or_else(|_| "tcp:?".into(), |a| format!("tcp:{a}")),
            #[cfg(unix)]
            ServeListener::Unix(l) => l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| format!("unix:{}", p.display())))
                .unwrap_or_else(|| "unix:?".into()),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            ServeListener::Tcp(l) => l.set_nonblocking(true),
            #[cfg(unix)]
            ServeListener::Unix(l) => l.set_nonblocking(true),
        }
    }

    /// Accepts one connection if one is pending; `None` on would-block.
    /// The accepted stream blocks on reads for at most `read_timeout`.
    fn accept(&self, read_timeout: Duration) -> io::Result<Option<Box<dyn ConnStream>>> {
        let accepted: io::Result<Box<dyn ConnStream>> = match self {
            ServeListener::Tcp(l) => l.accept().and_then(|(s, _)| {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(read_timeout))?;
                s.set_nodelay(true)?;
                Ok(Box::new(s) as Box<dyn ConnStream>)
            }),
            #[cfg(unix)]
            ServeListener::Unix(l) => l.accept().and_then(|(s, _)| {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(read_timeout))?;
                Ok(Box::new(s) as Box<dyn ConnStream>)
            }),
        };
        match accepted {
            Ok(stream) => Ok(Some(stream)),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// A connected stream a daemon can poll-read.
pub trait ConnStream: Read + Write + Send {}
impl ConnStream for TcpStream {}
#[cfg(unix)]
impl ConnStream for UnixStream {}

/// Where a daemon is in its drain sequence. Phases only advance.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Phase {
    /// Accepting connections.
    Accepting,
    /// The listener is closed; connections and tasks wind down.
    Draining,
    /// Every connection and task is joined; the finish step runs.
    Finishing,
    /// The finish step returned; the admin plane is down.
    Done,
}

/// The state every daemon shares: the drain phase, the transport
/// settings, and the counters behind the `/status` header and the
/// daemons' reports.
#[derive(Debug)]
pub struct Core {
    start: Instant,
    phase: AtomicU8,
    poll: Duration,
    retry: Retry,
    obs: Obs,
    connections: AtomicU64,
    frames: AtomicU64,
    busy: AtomicU64,
    quarantined: AtomicU64,
}

impl Core {
    /// A daemon in [`Phase::Accepting`]. `poll_ms` paces the accept
    /// loop and bounds each connection read; `retry` wraps every reply
    /// write; `obs` is what `/metrics` exposes.
    pub fn new(poll_ms: u64, retry: Retry, obs: Obs) -> Core {
        Core {
            start: Instant::now(),
            phase: AtomicU8::new(Phase::Accepting as u8),
            poll: Duration::from_millis(poll_ms.max(1)),
            retry,
            obs,
            connections: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        match self.phase.load(Ordering::SeqCst) {
            0 => Phase::Accepting,
            1 => Phase::Draining,
            2 => Phase::Finishing,
            _ => Phase::Done,
        }
    }

    /// Whether the drain has begun.
    pub fn draining(&self) -> bool {
        self.phase() >= Phase::Draining
    }

    /// Begins the drain; a no-op once draining.
    pub fn drain(&self) {
        self.advance(Phase::Draining);
    }

    fn advance(&self, to: Phase) {
        self.phase.fetch_max(to as u8, Ordering::SeqCst);
    }

    /// Milliseconds since the daemon started.
    pub fn uptime_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Connections accepted.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::SeqCst)
    }

    /// Frames received.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::SeqCst)
    }

    /// `Busy` replies sent.
    pub fn busy(&self) -> u64 {
        self.busy.load(Ordering::SeqCst)
    }

    /// Connections quarantined: garbage framing, or a reply the handler
    /// marked [`After::Quarantine`].
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::SeqCst)
    }
}

/// What the connection loop does once a reply is sent.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum After {
    /// Read the next frame.
    Continue,
    /// Close the connection and count it quarantined.
    Quarantine,
    /// Close the connection and drain the daemon.
    Drain,
}

/// One daemon's request semantics and status section; the transport,
/// the drain sequence and the admin plane are [`run`]'s.
pub trait Handler: Sync {
    /// What one connection carries from frame to frame.
    type Conn;
    /// The `/status` document's `command` value.
    const COMMAND: &'static str;
    /// The shared state.
    fn core(&self) -> &Core;
    /// The state of a newly accepted connection.
    fn open(&self) -> Self::Conn;
    /// Maps one frame to its reply and what follows the reply.
    fn frame(&self, conn: &mut Self::Conn, frame: Frame) -> (Frame, After);
    /// Runs between accept polls while the daemon accepts.
    fn tick(&self) {}
    /// Writes the handler's `/status` keys after the shared header.
    fn status(&self, w: &mut JsonWriter);
    /// Refreshes the handler's gauges before `/metrics` is rendered.
    fn refresh_gauges(&self, obs: &Obs);
    /// Whether `/healthz` reports `degraded` while accepting.
    fn degraded(&self) -> bool {
        false
    }
}

/// Serves `handler` on `listener`, and the admin plane on `admin`, until
/// `shutdown` is cancelled or a reply is marked [`After::Drain`]. Then
/// drains: drops the listener, joins every connection and every
/// `tasks` thread, runs `finish` with the admin plane still up, and
/// returns `finish`'s result.
///
/// `tasks` run beside the connections from start-up (ingest's file
/// tails) and must return once [`Core::draining`] holds.
///
/// # Errors
///
/// An I/O error when a listener cannot be switched to nonblocking
/// accepts. Nothing was served then, and the phase is [`Phase::Done`].
pub fn run<'h, H: Handler, R>(
    handler: &'h H,
    listener: ServeListener,
    admin: Option<ServeListener>,
    shutdown: &CancelToken,
    tasks: Vec<Box<dyn FnOnce() + Send + 'h>>,
    finish: impl FnOnce() -> R,
) -> io::Result<R> {
    let core = handler.core();
    std::thread::scope(|scope| {
        // Done on every exit from this scope, an error or a panic
        // included, so the admin thread and the connections stop and the
        // scope can join.
        let _done = Finished(core);
        listener.set_nonblocking()?;
        if let Some(admin) = admin {
            admin.set_nonblocking()?;
            scope.spawn(move || {
                while core.phase() < Phase::Done {
                    match admin.accept(ADMIN_TICK) {
                        Ok(Some(stream)) => handle_admin_conn(handler, stream),
                        Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                        Err(_) => std::thread::sleep(ADMIN_TICK),
                    }
                }
            });
        }
        let mut workers: Vec<_> = tasks.into_iter().map(|task| scope.spawn(task)).collect();
        while !core.draining() {
            if shutdown.is_cancelled() {
                core.drain();
                break;
            }
            handler.tick();
            match listener.accept(core.poll) {
                Ok(Some(stream)) => {
                    workers.push(scope.spawn(move || handle_conn(handler, stream)));
                }
                Ok(None) | Err(_) => std::thread::sleep(core.poll),
            }
        }
        drop(listener);
        for worker in workers {
            let _ = worker.join();
        }
        core.advance(Phase::Finishing);
        Ok(finish())
    })
}

/// Advances a daemon to [`Phase::Done`] when dropped.
struct Finished<'a>(&'a Core);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.0.advance(Phase::Done);
    }
}

/// One connection's lifecycle: frames in, replies out, until the peer
/// closes, the handler quarantines or drains, or the daemon drains.
fn handle_conn<H: Handler>(handler: &H, stream: Box<dyn ConnStream>) {
    let core = handler.core();
    core.connections.fetch_add(1, Ordering::SeqCst);
    let mut conn = handler.open();
    let mut framed = FramedStream::new(stream);
    loop {
        if core.draining() {
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
                core.quarantined.fetch_add(1, Ordering::SeqCst);
                return;
            }
        };
        core.frames.fetch_add(1, Ordering::SeqCst);
        let (reply, after) = handler.frame(&mut conn, frame);
        if matches!(reply, Frame::Busy { .. }) {
            core.busy.fetch_add(1, Ordering::SeqCst);
        }
        // A retried send re-transmits the whole frame. That is safe
        // only because a failed socket write is almost always
        // all-or-nothing, and a torn resend merely quarantines this one
        // client.
        if core.retry.run(|_| framed.send(&reply)).is_err() {
            return;
        }
        match after {
            After::Continue => {}
            After::Quarantine => {
                core.quarantined.fetch_add(1, Ordering::SeqCst);
                return;
            }
            After::Drain => {
                core.drain();
                return;
            }
        }
    }
}

/// Builds the `/status` document: the shared header, then the
/// handler's section.
fn status_json<H: Handler>(handler: &H) -> String {
    let core = handler.core();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("status_schema_version");
    w.uint(STATUS_SCHEMA_VERSION);
    w.key("command");
    w.string(H::COMMAND);
    w.key("uptime_ms");
    w.uint(core.uptime_ms());
    w.key("draining");
    w.boolean(core.draining());
    for (key, value) in [
        ("connections_total", core.connections()),
        ("frames_total", core.frames()),
        ("busy_total", core.busy()),
        ("quarantined_total", core.quarantined()),
    ] {
        w.key(key);
        w.uint(value);
    }
    handler.status(&mut w);
    w.end_object();
    w.finish()
}

/// Serves one admin-plane request: parse the GET line, route, reply,
/// close. Runs inline on the admin thread: requests are a few hundred
/// bytes and responses one snapshot, so a thread per scrape would buy
/// nothing.
fn handle_admin_conn<H: Handler>(handler: &H, mut stream: Box<dyn ConnStream>) {
    let core = handler.core();
    let Ok(path) = http_read_request_path(&mut stream) else {
        let _ = http_write_response(&mut stream, 400, "Bad Request", "text/plain", b"bad request\n");
        return;
    };
    let text = "text/plain";
    let (status, reason, content_type, body) = match path.as_str() {
        "/metrics" => {
            // Gauges are refreshed per scrape, so an idle daemon still
            // exposes a non-empty, parseable document.
            handler.refresh_gauges(&core.obs);
            let body = core.obs.prometheus_text().into_bytes();
            (200, "OK", "text/plain; version=0.0.4", body)
        }
        "/status" => (200, "OK", "application/json", status_json(handler).into_bytes()),
        "/healthz" if core.draining() => (503, "Service Unavailable", text, b"draining\n".to_vec()),
        "/healthz" if handler.degraded() => {
            (503, "Service Unavailable", text, b"degraded\n".to_vec())
        }
        "/healthz" => (200, "OK", text, b"ok\n".to_vec()),
        _ => (404, "Not Found", text, b"not found\n".to_vec()),
    };
    let _ = http_write_response(&mut stream, status, reason, content_type, &body);
}
