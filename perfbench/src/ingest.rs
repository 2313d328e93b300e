//! `ingest`: one `126.gcc`-profile stream sent in 1024-event `Events`
//! batches to an in-process `twpp::ingest::serve` over loopback, then a
//! `Drain` merges it to `merged.twpa`. The only workload that exercises
//! WAL append, inline seal, segment merge and ingest framing, and the
//! only one that writes while it is measured.

use std::collections::HashMap;
use std::fs;
use std::net::TcpStream;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

use twpp::gov::{CancelToken, Retry};
use twpp::ingest::{merged_path, serve, IngestError, ServeListener, ServeOptions, ServeReport};
use twpp::net::{Client, Frame, FrameDecoder};
use twpp::obs::Obs;
use twpp::{
    compact_governed, Codec, Compactor, Durability, GovOptions, IngestOptions, TwppArchive,
};
use twpp_tracer::WppEvent;
use twpp_workloads::{generate, Profile};

use crate::trace::{self, Tracer, OP};
use crate::util::{self, median_chunk_rate, timed_setup, Outcome, Rng, Samples, WorkDir};
use crate::{Args, SETUP_REPS};

/// Events per `Events` frame.
const BATCH: usize = 1024;
/// Seal threshold: 128 KiB of window (32 768 events, one seal per 32
/// batches, about 3% of batches), so the p99 acknowledgement latency
/// falls inside the population of inline seals, not on its edge.
const SEAL_BYTES: u64 = 128 << 10;
/// Stream length at scale 1.0.
const STREAM_EVENTS: f64 = 6.0e6;
/// Connections (one source each) opened during set-up. Sources are fed
/// one after another until the run time is used up.
const SOURCES: usize = 16;
const DURABILITY: Durability = Durability::Flush;

/// The daemon and its open connections. Dropping it cancels the daemon
/// and joins its thread.
struct Daemon {
    shutdown: CancelToken,
    thread: Option<JoinHandle<Result<ServeReport, IngestError>>>,
    clients: Vec<Client<TcpStream>>,
}

impl Daemon {
    fn start(dir: &Path) -> Daemon {
        let listener = ServeListener::bind("tcp:127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr();
        let shutdown = CancelToken::new();
        let opts = ServeOptions {
            seal_bytes: SEAL_BYTES,
            durability: DURABILITY,
            ..ServeOptions::default()
        };
        let (root, token) = (dir.to_path_buf(), shutdown.clone());
        let thread = std::thread::spawn(move || serve(&root, listener, token, opts));
        let tcp = addr.strip_prefix("tcp:").unwrap_or(&addr).to_owned();
        let clients = (0..SOURCES)
            .map(|i| {
                let stream = TcpStream::connect(&tcp).expect("connect to the ingest daemon");
                let _ = stream.set_nodelay(true);
                Client::hello(stream, &format!("s{i}")).expect("Hello to the ingest daemon")
            })
            .collect();
        Daemon {
            shutdown,
            thread: Some(thread),
            clients,
        }
    }

    /// Waits for the daemon to finish its drain and returns its report.
    fn join(&mut self) -> ServeReport {
        let thread = self.thread.take().expect("the daemon is joined once");
        thread
            .join()
            .expect("the ingest daemon thread does not panic")
            .expect("the ingest daemon drains cleanly")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.clients.clear();
        self.shutdown.cancel();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The `126.gcc`-profile stream, from the profile's own spec seed (see
/// [`crate::compact::profiles`] for why the run seed leaves it alone).
fn stream(scale: f64) -> Vec<WppEvent> {
    let mut spec = Profile::Gcc.spec();
    spec.target_events = ((STREAM_EVENTS * scale) as usize).max(1_000);
    generate(&spec).wpp.events()
}

/// The stream cut into `Events` batches: a first batch of `first`
/// events (1..=BATCH, chosen by the run seed, so batch contents and
/// seal points differ between seeds), then full batches.
fn batches(events: &[WppEvent], first: usize) -> Vec<&[WppEvent]> {
    let (head, rest) = events.split_at(first.min(events.len()));
    std::iter::once(head).chain(rest.chunks(BATCH)).collect()
}

/// The archive batch compaction writes for the same events: what every
/// drained `merged.twpa` must equal byte for byte.
fn batch_archive(events: &[WppEvent]) -> Vec<u8> {
    let wpp = twpp_tracer::RawWpp::from_events(events);
    let (compacted, stats) =
        compact_governed(&wpp, &GovOptions::default()).expect("generated WPPs are well-formed");
    TwppArchive::from_compacted_codec(
        &compacted,
        &HashMap::new(),
        twpp::resolve_threads(None),
        &stats.degraded.failed,
        &Obs::noop(),
        Codec::Legacy,
    )
    .as_bytes()
    .to_vec()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let work = WorkDir::new("ingest");
    let mut rep = 0;
    let ((events, mut daemon), setup_s, setup_times) = timed_setup(SETUP_REPS, || {
        rep += 1;
        let events = stream(args.scale);
        let daemon = Daemon::start(&work.path().join(format!("serve-{rep}")));
        (events, daemon)
    });
    let framing = batches(&events, 1 + Rng::new(args.seed).below(BATCH));
    out.line(format!(
        "inputs: 126.gcc stream of {} events, first batch {} events then {BATCH}-event batches, seal_bytes {SEAL_BYTES}, durability {}, \
         threads {}, clients 1 (closed loop, {SOURCES} connections opened in set-up, one source each)",
        events.len(),
        framing[0].len(),
        DURABILITY.as_str(),
        twpp::resolve_threads(None),
    ));
    out.line(format!(
        "setup: {SETUP_REPS} repetitions {setup_times:.3?} s"
    ));

    // Timed phase: feed whole sources until two thirds of the run time
    // are used up, then drain. The drain merges every fed source and
    // takes a little under half as long as their feed, so feed plus
    // drain fill about the run time. Each batch is timed from send to
    // `Ok`.
    let retry = Retry {
        max_attempts: 50,
        base_delay_ms: 1,
        cap_delay_ms: 50,
        seed: args.seed,
    };
    let mut latency = Samples::default();
    let mut sources = 0;
    let mut errors = 0u64;
    util::reset_peak_rss();
    let started = Instant::now();
    for client in daemon.clients.iter_mut() {
        if sources > 0 && started.elapsed().as_secs_f64() >= args.seconds * 2.0 / 3.0 {
            break;
        }
        let mut expected = 0u64;
        for (b, chunk) in framing.iter().enumerate() {
            expected += chunk.len() as u64;
            let sent = Instant::now();
            let acked = client.send_events(chunk, &retry);
            latency.push_since(sent);
            if acked.as_ref().ok() != Some(&expected) {
                out.gate(false, || {
                    format!("batch {b} acknowledged as {acked:?}, expected Ok({expected})")
                });
                errors += 1;
                break;
            }
        }
        sources += 1;
    }
    let feed_s = started.elapsed().as_secs_f64();
    let drain_started = Instant::now();
    let drained = daemon.clients[0].drain();
    out.gate(drained.is_ok(), || format!("drain refused: {drained:?}"));
    let report = daemon.join();
    let drain_s = drain_started.elapsed().as_secs_f64();
    let total_s = started.elapsed().as_secs_f64();
    out.metric("peak_rss_mb", util::peak_rss_mib(), "MiB");

    let fed_events = (sources * events.len()) as u64;
    let batches = latency.len() as u64;
    let busy = report.busy_responses;
    out.attempted = batches;
    out.failed = errors + busy;

    // Gate: drain ≡ batch. Every fed source's merged.twpa equals batch
    // compaction of the same events (so one archive's size stands for
    // all in `bytes_per_event`).
    let reference = batch_archive(&events);
    let mut segments = 0u64;
    for s in report.sources.iter().filter(|s| s.events > 0) {
        let merged = s.merged.as_ref().map(fs::read);
        let same = matches!(&merged, Some(Ok(b)) if *b == reference);
        out.gate(same && s.failed.is_none(), || {
            format!(
                "source {}: merged.twpa differs from batch compaction ({:?})",
                s.name, s.failed
            )
        });
        segments += s.segments;
    }
    out.gate(
        report.sources.iter().filter(|s| s.events > 0).count() == sources,
        || "a fed source is missing from the drain report".into(),
    );
    out.line(format!(
        "gate: {sources} merged.twpa byte-identical to batch compaction ({} bytes)",
        reference.len()
    ));

    // Input self-check: seals are 2-5% of batches.
    let seal_share = segments as f64 / batches.max(1) as f64;
    out.gate((0.02..=0.05).contains(&seal_share), || {
        format!(
            "seal share {:.2}% is outside 2-5% of batches",
            100.0 * seal_share
        )
    });
    let (p50, p99) = latency.p50_p99();
    out.line(format!(
        "timed: {sources} sources, {fed_events} events, {batches} batches; feed {feed_s:.2} s, drain {drain_s:.2} s; \
         seals {segments} ({:.2}% of batches); busy replies {busy}; ack latency p50/p99 over {batches} samples ({} beyond p99)",
        100.0 * seal_share,
        latency.beyond_p99()
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("events_per_s", fed_events as f64 / total_s, "1/s");
    out.metric(
        "requests_per_s",
        median_chunk_rate(&latency.0.iter().map(|&us| (us, 1.0)).collect::<Vec<_>>()),
        "1/s",
    );
    out.metric("latency_p50_us", p50, "us");
    out.metric("latency_p99_us", p99, "us");
    out.metric(
        "bytes_per_event",
        reference.len() as f64 / events.len() as f64,
        "B/event",
    );
    out.metric("ingest.busy_replies", busy as f64, "count");
    drop(daemon);

    if args.trace {
        // The same work for one source, end to end: its acknowledged
        // batches plus its share of the drain.
        let first_source = &latency.0[..framing.len().min(latency.len())];
        let e2e_ms = first_source.iter().sum::<f64>() / 1e3 + drain_s * 1e3 / sources as f64;
        let mut replay_counts = None;
        let mut k = 0;
        let (on, off_ms, on_ms) = trace::replay_three(|tracer| {
            k += 1;
            let dir = work.path().join(format!("replay-{k}"));
            let started = Instant::now();
            let counts = replay(&framing, &dir, tracer);
            let ms = trace::ms_since(started);
            let merged = fs::read(merged_path(&dir)).unwrap_or_default();
            out.gate(merged == reference, || {
                "layer replay merged a different archive".into()
            });
            if tracer.is_enabled() {
                replay_counts = Some(counts);
            }
            ms
        });
        let summary = on.summary();
        for (metric, span) in [
            ("net.frame_encode_us", "net.frame_encode"),
            ("net.frame_decode_us", "net.frame_decode"),
            ("ingest.feed_us", "ingest.feed"),
        ] {
            out.metric(metric, summary.layer(span).p50_us, "us");
        }
        out.metric(
            "ingest.seal_ms",
            summary.layer("ingest.seal").p50_us / 1e3,
            "ms",
        );
        out.metric(
            "ingest.finish_ms",
            summary.layer("ingest.finish").total_ms,
            "ms",
        );
        trace::accounting(&mut out, &summary, e2e_ms, off_ms, on_ms);
        let c = replay_counts.expect("the replay ran");
        out.line(format!(
            "traced replay: one source, {} batches; *_us and seal_ms are per-call medians of self time",
            framing.len()
        ));
        out.metric("ingest.seals", c.seals as f64, "count");
        out.metric("ingest.wal_bytes", c.wal_bytes as f64, "B");
        out.metric("ingest.segment_bytes", c.segment_bytes as f64, "B");
        out.metric(
            "ingest.bytes_written_per_event",
            (c.wal_bytes + c.segment_bytes + reference.len() as u64) as f64 / events.len() as f64,
            "B/event",
        );
    }
    out
}

struct ReplayCounts {
    seals: u64,
    wal_bytes: u64,
    segment_bytes: u64,
}

/// One source's ingest replayed through the layers the daemon calls per
/// batch: frame encode, frame decode, `Compactor::feed`, an inline
/// `Compactor::seal` whenever the window reaches the seal threshold,
/// and `Compactor::finish`.
fn replay(framing: &[&[WppEvent]], dir: &Path, tracer: &Tracer) -> ReplayCounts {
    let obs = Obs::collecting();
    let opts = IngestOptions {
        // Seals are issued explicitly below, at the daemon's threshold,
        // so `feed` and `seal` are timed apart.
        seal_bytes: u64::MAX,
        durability: DURABILITY,
        obs: obs.clone(),
        ..IngestOptions::default()
    };
    let mut compactor = Compactor::create(dir, opts).expect("create the replay compactor");
    let mut decoder = FrameDecoder::new();
    let mut offset = 0u64;
    for (b, chunk) in framing.iter().enumerate() {
        let op = b as u64;
        let root = tracer.span(OP, None, op);
        let parent = root.id();
        let frame = Frame::Events {
            offset,
            events: chunk.to_vec(),
        };
        let bytes = tracer.time("net.frame_encode", parent, op, || frame.encode());
        let decoded = tracer.time("net.frame_decode", parent, op, || {
            decoder.push(&bytes);
            decoder.next_frame()
        });
        let Ok(Some(Frame::Events { events: batch, .. })) = decoded else {
            panic!("an encoded Events frame decodes back");
        };
        tracer
            .time("ingest.feed", parent, op, || compactor.feed(&batch))
            .expect("the replay accepts every batch");
        if 4 * compactor.window_events() >= SEAL_BYTES {
            tracer
                .time("ingest.seal", parent, op, || compactor.seal())
                .expect("the replay seals");
        }
        offset += chunk.len() as u64;
    }
    let op = framing.len() as u64;
    let root = tracer.span(OP, None, op);
    tracer
        .time("ingest.finish", root.id(), op, || compactor.finish())
        .expect("the replay merges");
    let count = |name: &'static str| obs.counter(name, "").get();
    ReplayCounts {
        seals: count("twpp_core_ingest_seals_total"),
        wal_bytes: count("twpp_core_ingest_wal_bytes_total"),
        segment_bytes: count("twpp_core_ingest_segment_bytes_total"),
    }
}
