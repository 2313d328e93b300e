//! `compact`: the five SPECint95-profile WPPs compacted back to back by
//! `compact_governed`, encoded and saved with `Durability::Flush` — the
//! `twpp compact` path. The only workload where the pipeline stages
//! (partition → dedup → DBB → invert/series → DCG LZW → encode) take
//! nearly all the time; the query workloads bypass them.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use twpp::dbb::compact_trace;
use twpp::obs::Obs;
use twpp::pipeline::{CompactedTwpp, FunctionBlock};
use twpp::{
    compact_governed, eliminate_redundancy_threads, lzw, partition, Codec, DbbDictionary,
    Durability, GovOptions, TimestampedTrace, TwppArchive,
};
use twpp_ir::FuncId;
use twpp_tracer::RawWpp;
use twpp_workloads::{generate, Profile, Workload};

use crate::trace::{self, Tracer, OP};
use crate::util::{self, median, timed_setup, Outcome, Rng, Samples, WorkDir};
use crate::{Args, SETUP_REPS};

/// The five profiles at `scale`, generated from their own spec seeds.
/// The run seed never changes the generated programs: from one
/// generator seed to the next, bytes per event move by about 8% and
/// query rates by up to 2x, which would drown any change the benchmark
/// has to show. It varies framing, request order and selection instead.
pub fn profiles(scale: f64) -> Vec<Workload> {
    Profile::all()
        .iter()
        .map(|p| generate(&p.spec().scaled(scale)))
        .collect()
}

/// One compaction job as `twpp compact` runs it: governed pipeline at
/// the default thread count, encode, save with flush durability.
pub fn compact_job(wpp: &RawWpp, threads: usize, path: &Path) -> TwppArchive {
    let (compacted, stats) =
        compact_governed(wpp, &GovOptions::default()).expect("generated WPPs are well-formed");
    let archive = TwppArchive::from_compacted_codec(
        &compacted,
        &HashMap::new(),
        threads,
        &stats.degraded.failed,
        &Obs::noop(),
        Codec::default(),
    );
    archive
        .save_with(path, Durability::Flush)
        .expect("write the archive into the scratch directory");
    archive
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let threads = twpp::resolve_threads(None);
    let (inputs, setup_s, setup_times) = timed_setup(SETUP_REPS, || profiles(args.scale));
    let events_per_pass: usize = inputs.iter().map(|w| w.wpp.event_count()).sum();
    out.line(format!(
        "inputs: {} profiles, {events_per_pass} events per pass, threads {threads}, durability flush, clients 0 (in-process library calls)",
        inputs.len()
    ));
    out.line(format!(
        "setup: {SETUP_REPS} repetitions {setup_times:.3?} s"
    ));
    // Jobs run in the profiles' table order for every seed, so every run
    // times the same job sequence; the seed picks the archive the gate
    // reopens.
    let work = WorkDir::new("compact");
    let path_of = |w: &Workload| work.path().join(format!("{}.twpa", w.name));

    // Timed phase: whole passes over the five profiles until the run
    // time is used up; each job is timed from call to durable archive.
    let mut latency = Samples::default();
    let mut job_s: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut passes = 0;
    let mut pass_bytes: Vec<usize> = Vec::new();
    util::reset_peak_rss();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds || passes == 0 {
        let mut bytes = vec![0; inputs.len()];
        for (i, w) in inputs.iter().enumerate() {
            let job = Instant::now();
            let archive = compact_job(&w.wpp, threads, &path_of(w));
            latency.push_since(job);
            job_s[i].push(job.elapsed().as_secs_f64());
            bytes[i] = archive.byte_len();
        }
        passes += 1;
        if pass_bytes.is_empty() {
            pass_bytes = bytes;
        } else {
            out.gate(bytes == pass_bytes, || {
                "archive bytes differ between passes".into()
            });
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    out.metric("peak_rss_mb", util::peak_rss_mib(), "MiB");
    let jobs = latency.len() as u64;
    out.attempted = jobs;

    // Gate: a seeded profile's archive, reopened from disk, reconstructs
    // its input WPP exactly.
    let pick = Rng::new(args.seed).below(inputs.len());
    let reconstructs = TwppArchive::load(&path_of(&inputs[pick]))
        .and_then(|a| a.to_compacted())
        .is_ok_and(|c| c.reconstruct() == inputs[pick].wpp);
    out.gate(reconstructs, || {
        format!(
            "archive of {} does not reconstruct its input",
            inputs[pick].name
        )
    });
    out.line(format!(
        "gate: {} reopened and reconstructed: {}",
        inputs[pick].name,
        if reconstructs { "equal" } else { "MISMATCH" }
    ));

    // A pass as its jobs' medians: each profile's median job time,
    // summed, so one disturbed job moves one sample of one profile.
    let median_pass: f64 = job_s.iter().map(|t| median(t)).sum();
    let archive_bytes: usize = pass_bytes.iter().sum();
    let (p50, p99) = latency.p50_p99();
    out.line(format!(
        "timed: {passes} passes, {jobs} jobs in {wall_s:.2} s; pass of median jobs {:.1} ms; job latency p50/p99 over {jobs} samples ({} beyond p99)",
        median_pass * 1e3,
        latency.beyond_p99()
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("events_per_s", events_per_pass as f64 / median_pass, "1/s");
    out.metric("requests_per_s", inputs.len() as f64 / median_pass, "1/s");
    out.metric("latency_p50_us", p50, "us");
    out.metric("latency_p99_us", p99, "us");
    out.metric(
        "bytes_per_event",
        archive_bytes as f64 / events_per_pass as f64,
        "B/event",
    );

    if args.trace {
        let replays = passes.min(3);
        let e2e_ms = median_pass * 1e3 * replays as f64;
        let mut counts = Counts::default();
        let (on, off_ms, on_ms) = trace::replay_three(|tracer| {
            let started = Instant::now();
            for pass in 0..replays {
                for (i, w) in inputs.iter().enumerate() {
                    let op = (pass * inputs.len() + i) as u64;
                    let path = work.path().join(format!("replay-{}.twpa", w.name));
                    let (archive, c) = replay_job(&w.wpp, threads, &path, tracer, op);
                    let saved = std::fs::read(path_of(w)).unwrap_or_default();
                    out.gate(archive.as_bytes() == saved.as_slice(), || {
                        format!("layer replay of {} encodes a different archive", w.name)
                    });
                    if pass == 0 && tracer.is_enabled() {
                        counts.add(&c);
                    }
                }
            }
            trace::ms_since(started)
        });
        let summary = on.summary();
        let per_pass = |name: &str| summary.layer(name).total_ms / replays as f64;
        out.line(format!(
            "traced replay: {replays} passes; busy_ms figures are self time per pass"
        ));
        for (metric, span) in PIPELINE_LAYERS {
            out.metric(metric, per_pass(span), "ms");
        }
        out.metric("dedup.unique_traces", counts.unique_traces as f64, "count");
        out.metric("dbb.dictionaries", counts.dictionaries as f64, "count");
        out.metric(
            "tsset.series_entries",
            counts.series_entries as f64,
            "count",
        );
        out.metric("archive.bytes", archive_bytes as f64, "B");
        trace::accounting(&mut out, &summary, e2e_ms, off_ms, on_ms);
    }
    out
}

/// Per-layer metric name → span name of the write-path replay.
const PIPELINE_LAYERS: [(&str, &str); 7] = [
    ("partition.busy_ms", "partition"),
    ("dedup.busy_ms", "dedup"),
    ("dbb.busy_ms", "dbb"),
    ("timestamped.busy_ms", "timestamped"),
    ("lzw.busy_ms", "lzw"),
    ("archive.encode_ms", "archive.encode"),
    ("archive.write_ms", "archive.write"),
];

/// Exact size counts of one replayed pass.
#[derive(Default)]
struct Counts {
    unique_traces: usize,
    dictionaries: usize,
    series_entries: usize,
}

impl Counts {
    fn add(&mut self, c: &Counts) {
        self.unique_traces += c.unique_traces;
        self.dictionaries += c.dictionaries;
        self.series_entries += c.series_entries;
    }
}

/// The pipeline of [`compact_job`] replayed stage by stage through each
/// layer's public function, with a span around every call. Produces
/// the same archive bytes as `compact_governed` + encode (checked by
/// the caller).
fn replay_job(
    wpp: &RawWpp,
    threads: usize,
    path: &Path,
    tracer: &Tracer,
    op: u64,
) -> (TwppArchive, Counts) {
    let root = tracer.span(OP, None, op);
    let parent = root.id();
    let mut part = tracer
        .time("partition", parent, op, || partition(wpp))
        .expect("generated WPPs are well-formed");
    tracer.time("dedup", parent, op, || {
        eliminate_redundancy_threads(&mut part, threads)
    });

    let call_counts: HashMap<FuncId, u64> = part.dcg.call_counts().into_iter().collect();
    let entries: Vec<_> = part.traces.iter().collect();
    let mut functions: Vec<FunctionBlock> = {
        let stage = tracer.span("function_stage", parent, op);
        let stage_id = stage.id();
        twpp::par::map_indexed(&entries, threads, |_, (func, traces)| {
            let mut dicts: Vec<DbbDictionary> = Vec::new();
            let mut dict_index: HashMap<Vec<(u32, Vec<u32>)>, u32> = HashMap::new();
            let mut tts = Vec::with_capacity(traces.len());
            for trace in traces.iter() {
                let compacted = tracer.time("dbb", stage_id, op, || compact_trace(trace));
                let key: Vec<(u32, Vec<u32>)> = compacted
                    .dictionary
                    .iter()
                    .map(|(h, chain)| (h.as_u32(), chain.iter().map(|b| b.as_u32()).collect()))
                    .collect();
                let next = dicts.len() as u32;
                let idx = *dict_index.entry(key).or_insert(next);
                if idx == next {
                    dicts.push(compacted.dictionary);
                }
                let tt = tracer.time("timestamped", stage_id, op, || {
                    TimestampedTrace::from_path_trace(&compacted.trace)
                });
                tts.push((idx, tt));
            }
            FunctionBlock {
                func: **func,
                call_count: call_counts.get(*func).copied().unwrap_or(0),
                dicts,
                traces: tts,
            }
        })
    };
    functions.sort_by(|a, b| b.call_count.cmp(&a.call_count).then(a.func.cmp(&b.func)));

    tracer.time("lzw", parent, op, || {
        let bytes: Vec<u8> = part
            .dcg
            .to_words()
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        std::hint::black_box(lzw::compress(&bytes))
    });
    let counts = Counts {
        unique_traces: functions.iter().map(|f| f.traces.len()).sum(),
        dictionaries: functions.iter().map(|f| f.dicts.len()).sum(),
        series_entries: functions
            .iter()
            .flat_map(|f| f.traces.iter())
            .map(|(_, tt)| tt.total_entries())
            .sum(),
    };
    let compacted = CompactedTwpp {
        dcg: part.dcg,
        functions,
    };
    let archive = tracer.time("archive.encode", parent, op, || {
        TwppArchive::from_compacted_codec(
            &compacted,
            &HashMap::new(),
            threads,
            &[],
            &Obs::noop(),
            Codec::default(),
        )
    });
    tracer
        .time("archive.write", parent, op, || {
            archive.save_with(path, Durability::Flush)
        })
        .expect("write the archive into the scratch directory");
    (archive, counts)
}
