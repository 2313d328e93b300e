//! `query-cold` and `query-hot`: a seeded fleet of archives, one per
//! SPECint95 profile, served by an in-process `twpp_server::serve` and
//! queried over loopback by one closed-loop client.
//!
//! * `query-cold` caps the frame cache at a quarter of the fleet's
//!   on-disk bytes and sends every request of a seeded, shuffled pool
//!   once, after a warm-up that fills the summary cache. The summary
//!   cache then always misses and evicts on every insert, and most frame
//!   lookups miss and evict: frame I/O, CRC and decode, dynamic-CFG
//!   build, the solver, answer rendering and the cache insert make up
//!   most of each request.
//! * `query-hot` keeps the default cache caps and repeats a fixed set
//!   of 64 requests, so after warm-up every reply is a summary-cache
//!   hit: transport, framing, the cache lookup and the clone and encode
//!   of a cached reply, bypassing decode and the solver.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use twpp::gov::{Budget, CancelToken};
use twpp::ingest::ServeListener;
use twpp::lazy::LazyArchive;
use twpp::net::{Answer, BudgetSpec, CurrencyReq, Frame, FrameDecoder, QueryReq, SliceReq};
use twpp::obs::Obs;
use twpp_dataflow::dyncfg::DynCfg;
use twpp_ir::FuncId;
use twpp_server::{
    answer_currency_req, answer_query_req, answer_slice_req, currency_answer, query_answer, serve,
    slice_answer, Client, Fleet, ServeError, ServeOptions, ServeReport,
    DEFAULT_SUMMARY_CACHE_BYTES,
};

use crate::compact::{compact_job, profiles};
use crate::trace::{self, Tracer, OP};
use crate::util::{self, median, timed_setup, Outcome, Rng, Samples, WorkDir};
use crate::{Args, SETUP_REPS};

/// Requests in the repeated `query-hot` set.
const HOT_SET: usize = 64;
/// Query requests among them; the rest split between slice and currency.
const HOT_QUERIES: usize = 8;
/// Slice and currency requests are drawn from unique traces of at most
/// this many block events. Currency solves on longer loop traces take
/// from a tenth of a second to several seconds each (the main loop of
/// `099.go`, 34 765 events: 6–7 s); a handful of them would decide
/// a whole run's throughput. The traced run times the longest one
/// apart (`dataflow.currency_longest_ms`), so the cost stays visible.
const MAX_TRACE_EVENTS: u64 = 4096;
/// Timed requests the traced run replays through the layers.
const REPLAYED: usize = 5000;
/// One cold request in this many has its reply checked against the
/// local answer.
const COLD_SAMPLE_EVERY: u64 = 50;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Verb {
    Query,
    Slice,
    Currency,
}

impl Verb {
    const ALL: [Verb; 3] = [Verb::Query, Verb::Slice, Verb::Currency];

    fn name(self) -> &'static str {
        match self {
            Verb::Query => "query",
            Verb::Slice => "slice",
            Verb::Currency => "currency",
        }
    }
}

/// One request of the pool.
struct Req {
    archive: usize,
    verb: Verb,
    frame: Frame,
    /// WPP block events the answer covers: every unique trace of the
    /// function for a query, the one trace for slice and currency.
    events: u64,
}

/// The served fleet: archive names and paths, name-sorted.
struct FleetFiles {
    root: PathBuf,
    archives: Vec<(String, PathBuf)>,
    bytes: u64,
    raw_events: u64,
}

/// Generates and compacts the fleet: one archive per profile.
fn build_fleet(scale: f64, root: &Path) -> FleetFiles {
    std::fs::create_dir_all(root).expect("create the fleet directory");
    let threads = twpp::resolve_threads(None);
    let mut archives = Vec::new();
    let mut bytes = 0u64;
    let mut raw_events = 0u64;
    for w in profiles(scale) {
        let path = root.join(format!("{}.twpa", w.name));
        bytes += compact_job(&w.wpp, threads, &path).byte_len() as u64;
        raw_events += w.wpp.event_count() as u64;
        archives.push((w.name, path));
    }
    archives.sort();
    FleetFiles {
        root: root.to_path_buf(),
        archives,
        bytes,
        raw_events,
    }
}

/// Every distinct request over the fleet: one `Query` per function, and
/// per unique trace of at most [`MAX_TRACE_EVENTS`] events, at each
/// dynamic-CFG node head, one `Slice` and up to three `Currency`
/// requests (definitions one, two and three heads ahead; with one, no
/// and one redefining block).
fn request_pool(fleet: &FleetFiles) -> Vec<Req> {
    let budget = BudgetSpec::default();
    let mut pool = Vec::new();
    for (a, (name, path)) in fleet.archives.iter().enumerate() {
        let la = LazyArchive::open(path).expect("open a freshly written archive");
        for func in la.function_ids() {
            let rec = la
                .read_function(func)
                .expect("decode a freshly written frame");
            let lens: Vec<u64> = rec
                .traces
                .iter()
                .map(|(d, tt)| {
                    let dict = &rec.dicts[*d as usize];
                    tt.iter()
                        .map(|(h, ts)| ts.len() * dict.chain(h).map_or(1, |c| c.len() as u64))
                        .sum()
                })
                .collect();
            pool.push(Req {
                archive: a,
                verb: Verb::Query,
                frame: Frame::Query {
                    req: QueryReq {
                        archive: name.clone(),
                        func: func.as_u32(),
                    },
                    budget,
                },
                events: lens.iter().sum(),
            });
            for (t, (_, tt)) in rec.traces.iter().enumerate() {
                if lens[t] > MAX_TRACE_EVENTS {
                    continue;
                }
                let heads: Vec<u32> = tt.iter().map(|(h, _)| h.as_u32()).collect();
                let n = heads.len();
                for (i, &head) in heads.iter().enumerate() {
                    pool.push(Req {
                        archive: a,
                        verb: Verb::Slice,
                        frame: Frame::Slice {
                            req: SliceReq {
                                archive: name.clone(),
                                func: func.as_u32(),
                                trace: t as u32,
                                criterion: head,
                            },
                            budget,
                        },
                        events: lens[t],
                    });
                    // Currency variants: (definition, redefining blocks)
                    // relative to the use head; distinct whenever kept.
                    let variants = [
                        (
                            1,
                            if n > 2 {
                                vec![heads[(i + n / 2) % n]]
                            } else {
                                Vec::new()
                            },
                            true,
                        ),
                        (2, Vec::new(), n > 2),
                        (3, vec![heads[(i + n / 3) % n]], n > 3),
                    ];
                    for (ahead, redefs, keep) in variants {
                        if !keep {
                            continue;
                        }
                        pool.push(Req {
                            archive: a,
                            verb: Verb::Currency,
                            frame: Frame::Currency {
                                req: CurrencyReq {
                                    archive: name.clone(),
                                    func: func.as_u32(),
                                    trace: t as u32,
                                    def_block: heads[(i + ahead) % n],
                                    use_block: head,
                                    redefs,
                                },
                                budget,
                            },
                            events: lens[t],
                        });
                    }
                }
            }
        }
    }
    pool
}

/// The hot set: per verb, requests spread evenly by rank of covered
/// events (reply size grows with them) between the 25th and 75th
/// percentile; the seed moves each pick within a window of five
/// neighbouring ranks. The set's size profile is the same for every
/// seed, while the requests themselves differ.
fn hot_set(pool: Vec<Req>, rng: &mut Rng) -> Vec<Req> {
    let mut set = Vec::with_capacity(HOT_SET);
    let mut by_verb: Vec<Vec<Req>> = vec![Vec::new(), Vec::new(), Vec::new()];
    for r in pool {
        by_verb[Verb::ALL
            .iter()
            .position(|v| *v == r.verb)
            .expect("a known verb")]
        .push(r);
    }
    let quota = [
        HOT_QUERIES,
        (HOT_SET - HOT_QUERIES) / 2,
        HOT_SET - HOT_QUERIES - (HOT_SET - HOT_QUERIES) / 2,
    ];
    for (mut reqs, take) in by_verb.into_iter().zip(quota) {
        reqs.sort_by_cached_key(|r| (r.events, r.frame.encode()));
        let (lo, hi) = (reqs.len() / 4, reqs.len() * 3 / 4);
        let mid: Vec<Req> = reqs.into_iter().skip(lo).take(hi - lo).collect();
        let picks: Vec<usize> = (0..take)
            .map(|k| {
                let target = (2 * k + 1) * mid.len() / (2 * take);
                (target + rng.below(5))
                    .saturating_sub(2)
                    .min(mid.len().saturating_sub(1))
            })
            .collect();
        let mut mid: Vec<Option<Req>> = mid.into_iter().map(Some).collect();
        set.extend(
            picks
                .into_iter()
                .filter_map(|i| mid.get_mut(i).and_then(Option::take)),
        );
    }
    rng.shuffle(&mut set);
    set
}

/// The query daemon and the client connection opened in set-up.
struct Daemon {
    shutdown: CancelToken,
    thread: Option<JoinHandle<Result<ServeReport, ServeError>>>,
    client: Option<Client>,
}

impl Daemon {
    fn start(root: &Path, frame_cache_bytes: u64) -> Daemon {
        let listener = ServeListener::bind("tcp:127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr();
        let shutdown = CancelToken::new();
        let opts = ServeOptions {
            frame_cache_bytes,
            ..ServeOptions::default()
        };
        let (root, token) = (root.to_path_buf(), shutdown.clone());
        let thread = std::thread::spawn(move || serve(&root, listener, None, opts, &token));
        let client = Client::connect(&addr).expect("connect to the query daemon");
        Daemon {
            shutdown,
            thread: Some(thread),
            client: Some(client),
        }
    }

    fn client(&mut self) -> &mut Client {
        self.client
            .as_mut()
            .expect("the client lives as long as the daemon")
    }

    fn stop(&mut self) -> Option<ServeReport> {
        self.client = None;
        self.shutdown.cancel();
        self.thread
            .take()
            .and_then(|t| t.join().ok())
            .and_then(Result::ok)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

struct State {
    fleet: FleetFiles,
    requests: Vec<Req>,
    cache_cap: u64,
    daemon: Daemon,
}

/// One timed request: its pool index and client-side latency.
struct Sent {
    index: usize,
    us: f64,
}

pub fn run(args: &Args, hot: bool) -> Outcome {
    let mut out = Outcome::default();
    let work = WorkDir::new(if hot { "query-hot" } else { "query-cold" });
    let mut rep = 0;
    let (mut st, setup_s, setup_times) = timed_setup(SETUP_REPS, || {
        rep += 1;
        let root = work.path().join(format!("fleet-{rep}"));
        let fleet = build_fleet(args.scale, &root);
        let mut pool = request_pool(&fleet);
        let mut rng = Rng::new(args.seed);
        let (requests, cache_cap) = if hot {
            (hot_set(pool, &mut rng), twpp::DEFAULT_FRAME_CACHE_BYTES)
        } else {
            rng.shuffle(&mut pool);
            (pool, fleet.bytes / 4)
        };
        let daemon = Daemon::start(&root, cache_cap);
        State {
            fleet,
            requests,
            cache_cap,
            daemon,
        }
    });
    let mix: Vec<String> = Verb::ALL
        .iter()
        .map(|v| {
            format!(
                "{} {}",
                st.requests.iter().filter(|r| r.verb == *v).count(),
                v.name()
            )
        })
        .collect();
    out.line(format!(
        "inputs: fleet of {} archives, {} bytes on disk, {} raw events; frame cache cap {} bytes ({:.1}% of fleet); \
         summary cache cap {DEFAULT_SUMMARY_CACHE_BYTES} bytes; {} requests ({}); clients 1 (closed loop, one connection), threads {}",
        st.fleet.archives.len(),
        st.fleet.bytes,
        st.fleet.raw_events,
        st.cache_cap,
        100.0 * st.cache_cap as f64 / st.fleet.bytes as f64,
        st.requests.len(),
        mix.join(", "),
        twpp::resolve_threads(None),
    ));
    out.line(format!(
        "setup: {SETUP_REPS} repetitions {setup_times:.3?} s"
    ));
    if !hot {
        out.gate(st.fleet.bytes > st.cache_cap, || {
            "fleet bytes do not exceed the frame cache cap".into()
        });
    }

    // Warm-up, untimed: hot sends its set once, so every timed reply is a
    // summary-cache hit. Cold sends distinct requests until their
    // answers would fill the summary cache 1.25 times over (each
    // weighted, as the fleet weighs it, by request bytes + text bytes +
    // 64), so the timed phase runs in the steady state of a full cache
    // that evicts on every insert. It never takes more than half the
    // pool (at small scales the cache does not fill).
    let mut replies = Replies::default();
    let warm_started = Instant::now();
    let mut warm = 0;
    let mut weight = 0u64;
    while if hot {
        warm < st.requests.len()
    } else {
        weight < DEFAULT_SUMMARY_CACHE_BYTES / 4 * 5 && warm < st.requests.len() / 2
    } {
        let text = send(&mut st, warm, &mut replies, |_| false).1;
        weight += (st.requests[warm].frame.encode().len() + text + 64) as u64;
        warm += 1;
    }
    let first = if hot { 0 } else { warm };
    out.line(format!(
        "warm-up: {warm} requests in {:.2} s, untimed",
        warm_started.elapsed().as_secs_f64()
    ));
    out.gate(replies.failed == 0, || {
        format!(
            "{} warm-up replies were not complete answers",
            replies.failed
        )
    });
    replies = Replies::default();
    let sample = |index: usize| {
        if hot {
            index < HOT_SET
        } else {
            Rng::new(args.seed ^ index as u64)
                .next_u64()
                .is_multiple_of(COLD_SAMPLE_EVERY)
        }
    };

    // Timed phase: closed loop, each request timed from send to reply.
    let mut sent: Vec<Sent> = Vec::new();
    util::reset_peak_rss();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds {
        let index = if hot {
            sent.len() % st.requests.len()
        } else {
            first + sent.len()
        };
        if index >= st.requests.len() {
            out.line("note: the request pool ran out before the run time".into());
            break;
        }
        let keep = sample(sent.len());
        let us = send(&mut st, index, &mut replies, |_| keep).0;
        sent.push(Sent { index, us });
    }
    let wall_s = started.elapsed().as_secs_f64();
    out.metric("peak_rss_mb", util::peak_rss_mib(), "MiB");
    out.attempted = sent.len() as u64;
    out.failed = replies.failed;
    let failed = replies.failed;
    let replies = replies.kept;

    let rtt_us = if args.trace { rtt_floor(&mut st) } else { 0.0 };
    let report = st.daemon.stop();
    out.gate(
        report
            .as_ref()
            .is_some_and(|r| r.errors == 0 && r.busy == 0),
        || format!("daemon replied Error or Busy: {report:?}"),
    );

    // Gates: every reply was a complete answer, and the sampled replies
    // equal the local answer on the same archive byte for byte.
    out.gate(failed == 0, || {
        format!("{failed} replies were not complete answers")
    });
    let mismatches = remote_vs_local(&st, &replies);
    out.gate(mismatches == 0, || {
        format!("{mismatches} sampled replies differ from the local answer")
    });
    out.line(format!(
        "gate: {} sampled replies equal the local answer byte for byte, {mismatches} differ",
        replies.len() - mismatches
    ));
    if !hot {
        let used = first + sent.len();
        let distinct: HashSet<Vec<u8>> = st.requests[..used]
            .iter()
            .map(|r| r.frame.encode())
            .collect();
        out.gate(distinct.len() == used, || {
            "query-cold sent a request twice".into()
        });
    }

    let mut latency = Samples::default();
    let mut by_verb: HashMap<&str, Samples> = HashMap::new();
    for s in &sent {
        latency.0.push(s.us);
        by_verb
            .entry(st.requests[s.index].verb.name())
            .or_default()
            .0
            .push(s.us);
    }
    let (p50, p99) = latency.p50_p99();
    let rate = |units: &dyn Fn(&Sent) -> f64| {
        let samples: Vec<(f64, f64)> = sent.iter().map(|s| (s.us, units(s))).collect();
        util::median_chunk_rate(&samples)
    };
    let req_rate = rate(&|_| 1.0);
    let event_rate = rate(&|s| st.requests[s.index].events as f64);
    let mut slowest: Vec<&Sent> = sent.iter().collect();
    slowest.sort_by(|a, b| b.us.total_cmp(&a.us));
    for s in slowest.iter().take(3) {
        out.line(format!(
            "slow: {:.1} us {:?} ({} events)",
            s.us, st.requests[s.index].frame, st.requests[s.index].events
        ));
    }
    out.line(format!(
        "timed: {} requests in {wall_s:.2} s; latency p50/p99 over {} samples ({} beyond p99)",
        sent.len(),
        latency.len(),
        latency.beyond_p99()
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("events_per_s", event_rate, "1/s");
    out.metric("requests_per_s", req_rate, "1/s");
    out.metric("latency_p50_us", p50, "us");
    out.metric("latency_p99_us", p99, "us");
    out.metric(
        "bytes_per_event",
        st.fleet.bytes as f64 / st.fleet.raw_events as f64,
        "B/event",
    );
    for verb in Verb::ALL {
        let s = by_verb.get(verb.name()).cloned().unwrap_or_default();
        let (v50, v99) = s.p50_p99();
        let busy: f64 = s.0.iter().sum();
        out.line(format!(
            "verb {}: p50 {v50:.1} us, p99 {v99:.1} us, max {:.1} us over {} samples ({} beyond p99); {:.1}% of client time",
            verb.name(),
            s.0.iter().copied().fold(0.0, f64::max),
            s.len(),
            s.beyond_p99(),
            100.0 * busy / latency.0.iter().sum::<f64>(),
        ));
        let name = |q: &str| format!("verb.{}.latency_{q}_us", verb.name());
        out.metric(&name("p50"), v50, "us");
        out.metric(&name("p99"), v99, "us");
    }

    if args.trace {
        out.metric("net.rtt_floor_us", rtt_us, "us");
        traced_replay(
            &mut out,
            &st,
            &sent,
            if hot { st.requests.len() } else { first },
        );
    }
    out
}

/// Failed replies and the replies kept for the remote≡local check.
#[derive(Default)]
struct Replies {
    failed: u64,
    kept: Vec<(usize, Answer)>,
}

/// Sends one request and returns its client-side latency in µs and the
/// length of the answer text. A reply that is not a complete answer
/// counts as failed.
fn send(
    st: &mut State,
    index: usize,
    replies: &mut Replies,
    keep: impl Fn(usize) -> bool,
) -> (f64, usize) {
    let sent = Instant::now();
    let reply = st.daemon.client().request(&st.requests[index].frame);
    let us = sent.elapsed().as_secs_f64() * 1e6;
    match reply {
        Ok(Frame::Answer(a)) if a.complete => {
            let text = a.text.len();
            if keep(index) {
                replies.kept.push((index, *a));
            }
            (us, text)
        }
        _ => {
            replies.failed += 1;
            (us, 0)
        }
    }
}

/// Median `Stat` round trip on the open connection: the transport floor.
fn rtt_floor(st: &mut State) -> f64 {
    let name = st.fleet.archives[0].0.clone();
    let mut us = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t = Instant::now();
        let ok = st.daemon.client().stat(&name).is_ok();
        us.push(t.elapsed().as_secs_f64() * 1e6);
        if !ok {
            return f64::NAN;
        }
    }
    median(&us)
}

/// Counts sampled replies that differ from `answer_*_req` on a locally
/// opened copy of the same archive.
fn remote_vs_local(st: &State, replies: &[(usize, Answer)]) -> usize {
    let local: Vec<LazyArchive> = st
        .fleet
        .archives
        .iter()
        .map(|(_, p)| LazyArchive::open(p).expect("open a fleet archive locally"))
        .collect();
    let budget = Budget::unlimited();
    replies
        .iter()
        .filter(|(index, remote)| {
            let req = &st.requests[*index];
            let la = &local[req.archive];
            let answer = match &req.frame {
                Frame::Query { req, .. } => answer_query_req(la, req, &budget),
                Frame::Slice { req, .. } => answer_slice_req(la, req, &budget),
                Frame::Currency { req, .. } => answer_currency_req(la, req, &budget),
                _ => unreachable!("the pool holds only solvable requests"),
            };
            match answer {
                Ok(a) => {
                    Frame::Answer(Box::new(a)).encode()
                        != Frame::Answer(Box::new(remote.clone())).encode()
                }
                Err(_) => true,
            }
        })
        .count()
}

/// Per-layer metric name → span name of the read-path replay; each is
/// the median self time per call.
const READ_LAYERS: [(&str, &str); 12] = [
    ("fleet.summary_put_us", "fleet.summary_put"),
    ("lazy.open_us", "lazy.open"),
    ("lazy.read_miss_us", "lazy.read_miss"),
    ("dataflow.slice_us", "dataflow.slice"),
    ("dataflow.currency_us", "dataflow.currency"),
    ("answer.query_render_us", "answer.query_render"),
    ("fleet.summary_lookup_us", "fleet.summary_lookup"),
    ("net.answer_encode_us", "net.answer_encode"),
    ("net.answer_decode_us", "net.answer_decode"),
    ("net.request_encode_us", "net.request_encode"),
    ("net.request_decode_us", "net.request_decode"),
    ("lazy.read_hit_us", "lazy.read_hit"),
];

/// Replays the timed requests in-process, after the first `warm`
/// requests of the pool untraced, through the layers the daemon
/// calls — request framing, summary-cache lookup, frame read, solver or
/// renderer, summary insert, answer framing — with a span around each
/// call, against a fresh fleet with the daemon's cache caps.
fn traced_replay(out: &mut Outcome, st: &State, sent: &[Sent], warm: usize) {
    let replayed: Vec<usize> = sent.iter().take(REPLAYED).map(|s| s.index).collect();
    let e2e_ms: f64 = sent.iter().take(replayed.len()).map(|s| s.us).sum::<f64>() / 1e3;
    let mut stats = None;
    let (on, off_ms, on_ms) = trace::replay_three(|tracer| {
        let fleet = Fleet::new(
            &st.fleet.root,
            st.cache_cap,
            DEFAULT_SUMMARY_CACHE_BYTES,
            Obs::noop(),
        );
        let archives: Vec<LazyArchive> = st
            .fleet
            .archives
            .iter()
            .enumerate()
            .map(|(i, (_, path))| {
                tracer
                    .time("lazy.open", None, i as u64, || {
                        LazyArchive::open_with_cache(path, fleet.frame_cache().clone(), Obs::noop())
                    })
                    .expect("open a fleet archive")
            })
            .collect();
        // The same warm-up as the timed phase, untraced: the hot set
        // once, or the cold requests that filled the summary cache.
        let mut probes = [0u64; 2];
        let untraced = Tracer::new(false);
        for req in &st.requests[..warm] {
            replay_request(&untraced, &fleet, &archives, req, 0, &mut probes);
        }
        probes = [0, 0];
        let started = Instant::now();
        for (op, &index) in replayed.iter().enumerate() {
            let op = (archives.len() + op) as u64;
            let ok = replay_request(
                tracer,
                &fleet,
                &archives,
                &st.requests[index],
                op,
                &mut probes,
            );
            out.gate(ok, || "the layer replay failed a request".into());
        }
        let ms = trace::ms_since(started);
        if tracer.is_enabled() {
            stats = Some((probes, fleet.frame_cache().stats(), fleet.summary_stats()));
        }
        ms
    });
    let summary = on.summary();
    for (metric, span) in READ_LAYERS {
        out.metric(metric, summary.layer(span).p50_us, "us");
    }
    let (probes, frames, summaries) = stats.expect("the traced replay ran");
    let lookups = probes[0] + probes[1];
    out.metric(
        "cache.frame_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            probes[0] as f64 / lookups as f64
        },
        "fraction",
    );
    out.metric(
        "cache.frame_evicted_bytes",
        frames.evicted_bytes as f64,
        "B",
    );
    out.metric("fleet.summary_hit_ratio", summaries.hit_rate(), "fraction");
    out.line(format!(
        "traced replay: {} requests; frame lookups {lookups} ({} hits), summary lookups {} ({} hits); \
         *_us figures are per-call medians of self time",
        replayed.len(),
        probes[0],
        summaries.hits + summaries.misses,
        summaries.hits
    ));
    // The dynamic-CFG build runs inside slice_answer and currency_answer;
    // it is timed apart here, off the replay's timeline, so the
    // accounting counts it once.
    let archives: Vec<LazyArchive> = st
        .fleet
        .archives
        .iter()
        .map(|(_, p)| LazyArchive::open(p).expect("open a fleet archive"))
        .collect();
    let side = Tracer::new(true);
    for (op, &index) in replayed.iter().enumerate() {
        let (trace, func) = match &st.requests[index].frame {
            Frame::Slice { req, .. } => (req.trace, req.func),
            Frame::Currency { req, .. } => (req.trace, req.func),
            _ => continue,
        };
        let rec = archives[st.requests[index].archive]
            .read_function(FuncId::from_u32(func))
            .expect("read a fleet frame");
        let (d, tt) = &rec.traces[trace as usize];
        side.time("dataflow.dyncfg", None, op as u64, || {
            std::hint::black_box(DynCfg::new(tt, &rec.dicts[*d as usize]))
        });
    }
    out.metric(
        "dataflow.dyncfg_us",
        side.summary().layer("dataflow.dyncfg").p50_us,
        "us",
    );
    let (ms, what) = longest_currency(&archives);
    out.line(format!("longest currency solve: {what}: {ms:.1} ms"));
    out.metric("dataflow.currency_longest_ms", ms, "ms");
    trace::accounting(out, &summary, e2e_ms, off_ms, on_ms);
}

/// Times the pool's first currency variant at each of the (at most
/// eight) most-executed heads of the fleet's longest unique trace, which
/// the request pool leaves out (see [`MAX_TRACE_EVENTS`]); returns the
/// slowest solve.
fn longest_currency(archives: &[LazyArchive]) -> (f64, String) {
    let mut longest: Option<(u32, usize, FuncId, usize)> = None;
    for (a, la) in archives.iter().enumerate() {
        for func in la.function_ids() {
            let rec = la.read_function(func).expect("read a fleet frame");
            for (t, (_, tt)) in rec.traces.iter().enumerate() {
                if longest.is_none_or(|(l, ..)| tt.len() > l) {
                    longest = Some((tt.len(), a, func, t));
                }
            }
        }
    }
    let Some((len, a, func, t)) = longest else {
        return (0.0, "no traces".into());
    };
    let rec = archives[a].read_function(func).expect("read a fleet frame");
    let heads: Vec<(u32, u64)> = rec.traces[t]
        .1
        .iter()
        .map(|(h, ts)| (h.as_u32(), ts.len()))
        .collect();
    let n = heads.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(heads[i].1), i));
    let mut worst = (0.0, String::new());
    for &i in order.iter().take(8) {
        let redefs = if n > 2 {
            vec![heads[(i + n / 2) % n].0]
        } else {
            Vec::new()
        };
        let def = heads[(i + 1) % n].0;
        let started = Instant::now();
        let answer = currency_answer(
            func,
            &rec,
            t as u32,
            def,
            heads[i].0,
            &redefs,
            &Budget::unlimited(),
        );
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if ms > worst.0 {
            worst = (
                ms,
                format!(
                    "archive {a} function {} trace {t} ({len} timestamps): def {def} use {} redefs {redefs:?}{}",
                    func.as_u32(),
                    heads[i].0,
                    if answer.is_ok() { "" } else { ", refused" }
                ),
            );
        }
    }
    worst
}

/// Answers one request the way the daemon does, timing each layer.
/// `probes` counts frame-cache hits and misses.
fn replay_request(
    tracer: &Tracer,
    fleet: &Fleet,
    archives: &[LazyArchive],
    req: &Req,
    op: u64,
    probes: &mut [u64; 2],
) -> bool {
    let root = tracer.span(OP, None, op);
    let p = root.id();
    let wire = tracer.time("net.request_encode", p, op, || req.frame.encode());
    let mut decoder = FrameDecoder::new();
    let Ok(Some(frame)) = tracer.time("net.request_decode", p, op, || {
        decoder.push(&wire);
        decoder.next_frame()
    }) else {
        return false;
    };
    let la = &archives[req.archive];
    let uid = la.archive_uid();
    let key = tracer.time("fleet.summary_key", p, op, || frame.encode());
    let hit = tracer.time("fleet.summary_lookup", p, op, || {
        fleet.summary_get(uid, &key)
    });
    let answer: Arc<Answer> = match hit {
        Some(a) => a,
        None => {
            let budget = Budget::unlimited();
            let func = match &frame {
                Frame::Query { req, .. } => req.func,
                Frame::Slice { req, .. } => req.func,
                Frame::Currency { req, .. } => req.func,
                _ => return false,
            };
            let func = FuncId::from_u32(func);
            let cached = tracer.time("lazy.read_hit", p, op, || {
                fleet.frame_cache().get(uid, func)
            });
            let record = match cached {
                Some(rec) => {
                    probes[0] += 1;
                    rec
                }
                None => {
                    probes[1] += 1;
                    match tracer.time("lazy.read_miss", p, op, || {
                        la.read_function_governed(func, &budget)
                    }) {
                        Ok(rec) => rec,
                        Err(_) => return false,
                    }
                }
            };
            let solved = match &frame {
                Frame::Query { .. } => tracer.time("answer.query_render", p, op, || {
                    query_answer(func, &record, &budget)
                }),
                Frame::Slice { req, .. } => tracer.time("dataflow.slice", p, op, || {
                    slice_answer(func, &record, req.trace, req.criterion, &budget)
                }),
                Frame::Currency { req, .. } => tracer.time("dataflow.currency", p, op, || {
                    currency_answer(
                        func,
                        &record,
                        req.trace,
                        req.def_block,
                        req.use_block,
                        &req.redefs,
                        &budget,
                    )
                }),
                _ => return false,
            };
            let Ok(answer) = solved else {
                return false;
            };
            tracer.time("fleet.summary_put", p, op, || {
                fleet.summary_put(uid, key, Arc::new(answer))
            })
        }
    };
    let reply = tracer.time("answer.clone", p, op, || {
        Frame::Answer(Box::new((*answer).clone()))
    });
    let bytes = tracer.time("net.answer_encode", p, op, || reply.encode());
    let mut decoder = FrameDecoder::new();
    let decoded = tracer.time("net.answer_decode", p, op, || {
        decoder.push(&bytes);
        decoder.next_frame()
    });
    matches!(decoded, Ok(Some(Frame::Answer(a))) if a.complete)
}
