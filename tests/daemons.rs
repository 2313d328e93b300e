//! Both daemons in-process on loopback, through the one daemon skeleton
//! (`twpp::daemon`):
//!
//! * ingest drain ≡ batch: the drained `merged.twpa` equals a batch
//!   `Compactor`'s bytes;
//! * serve remote ≡ local for one `Query`, `Slice` and `Currency` each;
//! * garbage framing quarantines one connection on either daemon, and
//!   the daemon keeps serving;
//! * a connection still open at drain gets a typed `Error{ERR_DRAINING}`
//!   on either daemon;
//! * `serve` with `max_inflight: 0` sheds every request with `Busy`;
//! * the admin plane answers 404 for an unknown path and 400 for a
//!   malformed request line, and stays up through the finish step,
//!   where `/healthz` is 503 `draining`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use twpp_repro::twpp::daemon::{self, After, Core, Handler, Phase, ServeListener};
use twpp_repro::twpp::ingest;
use twpp_repro::twpp::lazy::LazyArchive;
use twpp_repro::twpp::net::{
    self, BudgetSpec, CurrencyReq, Frame, FramedStream, QueryReq, SliceReq, ERR_DRAINING,
    ERR_PROTOCOL,
};
use twpp_repro::twpp::obs::{parse_json, JsonWriter, Obs};
use twpp_repro::twpp::{
    compact, CancelToken, Compactor, Durability, IngestOptions, Limits, Retry, TwppArchive,
};
use twpp_repro::twpp_dataflow::dyncfg::DynCfg;
use twpp_repro::twpp_lang;
use twpp_repro::twpp_tracer::{run_traced, ExecLimits, RawWpp, WppEvent};

/// Nested calls and loops, so several functions carry several traces.
const SRC: &str = "\
fn f(x) { if (x % 3 == 0) { print(x); } else { print(0 - x); } }
fn g(x) { let j = 0; while (j < x % 4) { f(x + j); j = j + 1; } }
fn main() { let i = 0; while (i < 30) { g(i); f(i); i = i + 1; } }";

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "twpp-daemons-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn events() -> Vec<WppEvent> {
    let program = twpp_lang::compile(SRC).expect("test program compiles");
    let (_, wpp) = run_traced(&program, &[], ExecLimits::default()).expect("test program runs");
    wpp.events()
}

/// A blocking TCP connection to a `tcp:` address, with a read timeout
/// so a missing reply fails the test instead of hanging it.
fn tcp(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr.strip_prefix("tcp:").expect("a tcp: address"))
        .expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// Sends garbage that is not a frame and returns the daemon's reply.
fn send_garbage(addr: &str) -> Frame {
    let mut stream = tcp(addr);
    stream.write_all(b"GET / HTTP/1.1\r\n\r\n").expect("write garbage");
    FramedStream::new(stream).recv().expect("a typed refusal")
}

/// One raw HTTP exchange with the admin plane; returns the status line.
fn admin_status_line(admin: &str, request: &[u8]) -> String {
    let mut stream = tcp(admin);
    stream.write_all(request).expect("write request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    reply.lines().next().unwrap_or_default().to_owned()
}

fn assert_draining_refusal(reply: Result<Frame, net::NetError>) {
    match reply {
        Ok(Frame::Error { code, .. }) => assert_eq!(code, ERR_DRAINING),
        other => panic!("an open connection must be refused with ERR_DRAINING: {other:?}"),
    }
}

#[test]
fn ingest_drain_matches_batch_and_refuses_open_connections() {
    let root = temp_dir("ingest");
    let events = events();
    let baseline = {
        let opts = IngestOptions {
            seal_bytes: 256,
            durability: Durability::None,
            ..IngestOptions::default()
        };
        let mut c = Compactor::create(&root.join("baseline"), opts).expect("create");
        c.feed(&events).expect("feed");
        std::fs::read(c.finish().expect("finish").path).expect("read baseline")
    };

    let listener = ServeListener::bind("tcp:127.0.0.1:0").expect("bind");
    let admin = ServeListener::bind("tcp:127.0.0.1:0").expect("bind admin");
    let (addr, admin_addr) = (listener.local_addr(), admin.local_addr());
    let opts = ingest::ServeOptions {
        seal_bytes: 256,
        durability: Durability::None,
        poll_ms: 5,
        ..ingest::ServeOptions::default()
    };
    let dir = root.join("serve");
    let daemon = std::thread::spawn(move || {
        ingest::serve_with_admin(&dir, listener, Some(admin), CancelToken::new(), opts)
    });

    match send_garbage(&addr) {
        Frame::Error { code, .. } => assert_eq!(code, ERR_PROTOCOL),
        other => panic!("garbage must be refused with ERR_PROTOCOL: {other:?}"),
    }
    let mut idle = FramedStream::new(tcp(&addr));
    idle.send(&Frame::Hello { source: "idle".into() }).expect("hello");
    assert_eq!(idle.recv().expect("hello ack"), Frame::Ok { accepted: 0 });

    let mut client = net::Client::hello(tcp(&addr), "src").expect("hello");
    for batch in events.chunks(37) {
        client.send_events(batch, &Retry::new(8, 1, 4, 7)).expect("events");
    }
    assert_eq!(client.accepted(), events.len() as u64);

    let (code, body) = net::http_get(&admin_addr, "/healthz").expect("healthz");
    assert_eq!((code, body.as_str()), (200, "ok\n"));
    let (code, _) = net::http_get(&admin_addr, "/nope").expect("unknown path");
    assert_eq!(code, 404);
    let line = admin_status_line(&admin_addr, b"BREW /pot HTCPCP/1.0\r\n\r\n");
    assert!(line.starts_with("HTTP/1.0 400"), "{line}");

    client.drain().expect("drain");
    assert_draining_refusal(idle.recv());
    let report = daemon.join().expect("daemon thread").expect("daemon drains");
    assert!(report.all_clean(), "{report:?}");
    assert_eq!(report.quarantined, 1, "{report:?}");
    let src = report.sources.iter().find(|s| s.name == "src").expect("src drained");
    let merged = std::fs::read(src.merged.as_ref().expect("src merged")).expect("read merged");
    assert_eq!(merged, baseline, "drain must equal the batch compactor byte for byte");
    let _ = std::fs::remove_dir_all(&root);
}

/// A fleet of one archive, `a.twpa`, compacted from [`SRC`].
fn fleet(root: &Path) -> PathBuf {
    let path = root.join("a.twpa");
    TwppArchive::from_compacted(&compact(&RawWpp::from_events(&events())).expect("compact"))
        .save_with(&path, Durability::None)
        .expect("save");
    path
}

fn spawn_serve(
    root: &Path,
    opts: twpp_server::ServeOptions,
) -> (
    String,
    CancelToken,
    std::thread::JoinHandle<Result<twpp_server::ServeReport, twpp_server::ServeError>>,
) {
    let listener = ServeListener::bind("tcp:127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    let shutdown = CancelToken::new();
    let (root, token) = (root.to_path_buf(), shutdown.clone());
    let daemon = std::thread::spawn(move || {
        twpp_server::serve(&root, listener, None, opts, &token)
    });
    (addr, shutdown, daemon)
}

#[test]
fn serve_answers_like_local_and_refuses_open_connections() {
    let root = temp_dir("serve");
    let local = LazyArchive::open(&fleet(&root)).expect("open");
    let opts = twpp_server::ServeOptions { poll_ms: 5, ..Default::default() };
    let (addr, shutdown, daemon) = spawn_serve(&root, opts);

    match send_garbage(&addr) {
        Frame::Error { code, .. } => assert_eq!(code, ERR_PROTOCOL),
        other => panic!("garbage must be refused with ERR_PROTOCOL: {other:?}"),
    }

    // The first function whose first trace has blocks to slice.
    let (func, record, dcfg) = local
        .function_ids()
        .into_iter()
        .find_map(|func| {
            let record = local.read_function(func).expect("read function");
            let (dict, tt) = record.traces.first()?;
            let dcfg = DynCfg::new(tt, &record.dicts[*dict as usize]);
            (dcfg.node_count() > 1).then_some((func, record, dcfg))
        })
        .expect("a function with a sliceable trace");
    let criterion = dcfg.node(dcfg.node_count() - 1).head.as_u32();
    let def_block = dcfg.node(0).head.as_u32();
    let unlimited = BudgetSpec { deadline_ms: 0, max_steps: 0 };
    let budget = || Limits::new().start();

    let mut client = twpp_server::Client::connect(&addr).expect("connect");
    let archive = || "a".to_owned();
    let id = func.as_u32();
    assert_eq!(
        client.query(QueryReq { archive: archive(), func: id }, unlimited).expect("query"),
        twpp_server::query_answer(func, &record, &budget()).expect("local query")
    );
    assert_eq!(
        client
            .slice(SliceReq { archive: archive(), func: id, trace: 0, criterion }, unlimited)
            .expect("slice"),
        twpp_server::slice_answer(func, &record, 0, criterion, &budget()).expect("local slice")
    );
    let req = CurrencyReq {
        archive: archive(),
        func: id,
        trace: 0,
        def_block,
        use_block: criterion,
        redefs: Vec::new(),
    };
    assert_eq!(
        client.currency(req, unlimited).expect("currency"),
        twpp_server::currency_answer(func, &record, 0, def_block, criterion, &[], &budget())
            .expect("local currency")
    );

    let mut open = FramedStream::new(tcp(&addr));
    open.send(&Frame::ListArchives).expect("list");
    assert!(matches!(open.recv().expect("archives"), Frame::Archives { .. }));
    shutdown.cancel();
    assert_draining_refusal(open.recv());
    let report = daemon.join().expect("daemon thread").expect("daemon drains");
    assert_eq!(report.quarantined, 1, "{report:?}");
    assert_eq!((report.answers, report.busy), (3, 0), "{report:?}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn serve_without_admission_sheds_every_request_with_busy() {
    let root = temp_dir("busy");
    fleet(&root);
    let opts = twpp_server::ServeOptions {
        poll_ms: 5,
        max_inflight: 0,
        retry_after_ms: 7,
        ..Default::default()
    };
    let (addr, shutdown, daemon) = spawn_serve(&root, opts);
    let mut conn = FramedStream::new(tcp(&addr));
    for _ in 0..2 {
        let req = QueryReq { archive: "a".into(), func: 0 };
        conn.send(&Frame::Query { req, budget: BudgetSpec::default() }).expect("send");
        assert_eq!(conn.recv().expect("reply"), Frame::Busy { retry_after_ms: 7 });
    }
    drop(conn);
    shutdown.cancel();
    let report = daemon.join().expect("daemon thread").expect("daemon drains");
    assert_eq!((report.busy, report.requests, report.answers), (2, 0, 0), "{report:?}");
    let _ = std::fs::remove_dir_all(&root);
}

/// A minimal handler: `Seal` is shed with `Busy`, `Drain` drains, any
/// other frame is refused and quarantined.
struct Probe {
    core: Core,
}

impl Handler for Probe {
    type Conn = ();
    const COMMAND: &'static str = "probe";

    fn core(&self) -> &Core {
        &self.core
    }

    fn open(&self) {}

    fn frame(&self, _conn: &mut (), frame: Frame) -> (Frame, After) {
        match frame {
            Frame::Seal => (Frame::Busy { retry_after_ms: 1 }, After::Continue),
            Frame::Drain => (Frame::Ok { accepted: 0 }, After::Drain),
            _ => (Frame::Error { code: ERR_PROTOCOL, message: "probe".into() }, After::Quarantine),
        }
    }

    fn status(&self, w: &mut JsonWriter) {
        w.key("probe");
        w.boolean(true);
    }

    fn refresh_gauges(&self, _obs: &Obs) {}
}

#[test]
fn drain_state_machine_keeps_the_admin_plane_up_through_finishing() {
    let probe = Probe { core: Core::new(5, Retry::none(), Obs::collecting()) };
    let listener = ServeListener::bind("tcp:127.0.0.1:0").expect("bind");
    let admin = ServeListener::bind("tcp:127.0.0.1:0").expect("bind admin");
    let (addr, admin_addr) = (listener.local_addr(), admin.local_addr());
    std::thread::scope(|scope| {
        // Made inside the scope: a failed assertion drops `release_tx`,
        // which ends the finish step instead of hanging the join.
        let (finishing_tx, finishing_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let probe = &probe;
        let served = scope.spawn(move || {
            let shutdown = CancelToken::new();
            daemon::run(probe, listener, Some(admin), &shutdown, Vec::new(), move || {
                finishing_tx.send(probe.core.phase()).expect("signal finishing");
                release_rx.recv().expect("release");
                "finished"
            })
        });

        let mut open = FramedStream::new(tcp(&addr));
        open.send(&Frame::Seal).expect("seal");
        assert_eq!(open.recv().expect("busy"), Frame::Busy { retry_after_ms: 1 });
        assert_eq!(probe.core.phase(), Phase::Accepting);
        assert_eq!(net::http_get(&admin_addr, "/healthz").expect("healthz").0, 200);

        let mut drainer = FramedStream::new(tcp(&addr));
        drainer.send(&Frame::Drain).expect("drain");
        assert_eq!(drainer.recv().expect("drain ack"), Frame::Ok { accepted: 0 });
        assert_draining_refusal(open.recv());

        // Finishing: every connection is joined, the admin plane is up.
        assert_eq!(finishing_rx.recv().expect("finishing"), Phase::Finishing);
        let (code, body) = net::http_get(&admin_addr, "/healthz").expect("healthz");
        assert_eq!((code, body.as_str()), (503, "draining\n"));
        let (code, status) = net::http_get(&admin_addr, "/status").expect("status");
        assert_eq!(code, 200);
        let doc = parse_json(&status).expect("status JSON");
        let num = |key: &str| doc.get(key).and_then(|v| v.as_num()).expect(key);
        assert_eq!(doc.get("command").and_then(|v| v.as_str()), Some("probe"));
        assert_eq!(doc.get("draining").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("probe").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(num("connections_total"), 2.0);
        assert_eq!(num("frames_total"), 2.0);
        assert_eq!(num("busy_total"), 1.0);
        assert_eq!(num("quarantined_total"), 0.0);
        release_tx.send(()).expect("release");
        assert_eq!(served.join().expect("run thread").expect("run"), "finished");
    });
    assert_eq!(probe.core.phase(), Phase::Done);
}
