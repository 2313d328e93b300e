//! The repository benchmark: end-to-end and per-layer figures for the
//! TWPP write path (compaction, streaming ingest) and read path (query
//! service over loopback). See `NOTES.md` beside this crate.
//!
//! ```text
//! perfbench --workload <compact|ingest|query-cold|query-hot> --seed N --seconds S --trace 0|1
//! perfbench --workload W --repeat K [--seed N] [--seconds S]   # steadiness report
//! perfbench --smoke                                            # every workload, tiny scale
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). A failed
//! correctness gate prints `correct: false` and exits 1.

mod compact;
mod ingest;
mod query;
mod trace;
mod util;

use std::process::{Command, ExitCode};

use twpp::obs::{parse_json, Json};

use crate::util::{median, Outcome};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

pub const WORKLOADS: [&str; 4] = ["compact", "ingest", "query-cold", "query-hot"];

/// End-to-end metrics: name, unit, bound (share of the parent's median
/// a metric may worsen by). Mirrors `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, f64); 8] = [
    ("setup_s", "s", 0.25),
    ("events_per_s", "1/s", 0.25),
    ("requests_per_s", "1/s", 0.25),
    ("latency_p50_us", "us", 0.25),
    ("latency_p99_us", "us", 0.25),
    ("bytes_per_event", "B/event", 0.01),
    ("peak_rss_mb", "MiB", 0.2),
    ("success_ratio", "fraction", 0.01),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("partition.busy_ms", "ms"),
    ("dedup.busy_ms", "ms"),
    ("dbb.busy_ms", "ms"),
    ("timestamped.busy_ms", "ms"),
    ("lzw.busy_ms", "ms"),
    ("archive.encode_ms", "ms"),
    ("archive.write_ms", "ms"),
    ("dedup.unique_traces", "count"),
    ("dbb.dictionaries", "count"),
    ("tsset.series_entries", "count"),
    ("archive.bytes", "B"),
    ("net.frame_encode_us", "us"),
    ("net.frame_decode_us", "us"),
    ("ingest.feed_us", "us"),
    ("ingest.seal_ms", "ms"),
    ("ingest.finish_ms", "ms"),
    ("ingest.seals", "count"),
    ("ingest.wal_bytes", "B"),
    ("ingest.segment_bytes", "B"),
    ("ingest.bytes_written_per_event", "B/event"),
    ("ingest.busy_replies", "count"),
    ("lazy.open_us", "us"),
    ("lazy.read_miss_us", "us"),
    ("lazy.read_hit_us", "us"),
    ("cache.frame_hit_ratio", "fraction"),
    ("cache.frame_evicted_bytes", "B"),
    ("dataflow.dyncfg_us", "us"),
    ("dataflow.slice_us", "us"),
    ("dataflow.currency_us", "us"),
    ("dataflow.currency_longest_ms", "ms"),
    ("answer.query_render_us", "us"),
    ("fleet.summary_hit_ratio", "fraction"),
    ("fleet.summary_lookup_us", "us"),
    ("fleet.summary_put_us", "us"),
    ("net.request_encode_us", "us"),
    ("net.request_decode_us", "us"),
    ("net.answer_encode_us", "us"),
    ("net.answer_decode_us", "us"),
    ("net.rtt_floor_us", "us"),
    ("verb.query.latency_p50_us", "us"),
    ("verb.query.latency_p99_us", "us"),
    ("verb.slice.latency_p50_us", "us"),
    ("verb.slice.latency_p99_us", "us"),
    ("verb.currency.latency_p50_us", "us"),
    ("verb.currency.latency_p99_us", "us"),
    ("trace.layer_self_ms", "ms"),
    ("trace.covered_ratio", "fraction"),
    ("trace.gap_ms", "ms"),
    ("trace.overhead_ratio", "fraction"),
];

/// Metrics whose spread sank an earlier version of this benchmark; the
/// repeat report flags them.
const WATCHED: [(&str, &str); 3] = [
    ("query-hot", "setup_s"),
    ("query-hot", "requests_per_s"),
    ("query-cold", "requests_per_s"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    pub repeat: usize,
    pub smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        scale: 1.0,
        repeat: 0,
        smoke: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--scale" => {
                args.scale = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?
            }
            "--repeat" => {
                args.repeat = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.smoke && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return smoke();
    }
    if args.repeat > 0 {
        return repeat(&args);
    }
    run_one(&args)
}

fn run_one(args: &Args) -> ExitCode {
    // Every workload runs on one CPU. Pinning comes first, so every
    // thread the run spawns inherits it, and the default thread count of
    // the pipeline follows (`available_parallelism` is then 1).
    let pinned = util::pin_to_one_cpu();
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} scale {}; git {}; available_parallelism {}; pinned to cpu {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale,
        util::git_rev(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        pinned.map_or_else(|| "none".into(), |c| c.to_string()),
    );
    let mut out = match args.workload.as_str() {
        "compact" => compact::run(args),
        "ingest" => ingest::run(args),
        "query-cold" => query::run(args, false),
        "query-hot" => query::run(args, true),
        _ => unreachable!("the workload name was validated"),
    };
    let attempted = out.attempted.max(1);
    out.metric(
        "success_ratio",
        1.0 - out.failed as f64 / attempted as f64,
        "fraction",
    );
    out.correct = out.errors.is_empty();
    for line in &out.lines {
        println!("{line}");
    }
    for e in &out.errors {
        println!("GATE FAILED: {e}");
    }
    let mut result = Outcome {
        correct: out.correct,
        attempted,
        failed: out.failed,
        ..Outcome::default()
    };
    let names: Vec<(&str, &'static str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
    };
    for m in &out.metrics {
        let listed = names.iter().any(|(n, _)| *n == m.name);
        println!(
            "{} {:<34} {:>16.4} {}",
            if listed { "metric" } else { "info  " },
            m.name,
            m.value,
            m.unit
        );
    }
    for (name, unit) in names {
        let value = out.get(name).unwrap_or(0.0);
        if !value.is_finite() {
            result.correct = false;
            println!("GATE FAILED: metric {name} is not a finite number");
        }
        result.metric(name, value, unit);
    }
    println!("{}", result.json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs this binary as a child process and parses its result line.
fn child(args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json = parse_json(last).map_err(|e| format!("result line does not parse ({e}): {last}"))?;
    if !output.status.success() {
        return Err(format!(
            "exit {}: {}",
            output.status,
            stdout.lines().rev().nth(1).unwrap_or_default()
        ));
    }
    Ok(json)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_num()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default exclusive method).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n < 2 {
        let v = d.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Runs one workload `K` times with consecutive seeds and prints, per
/// end-to-end metric, the median, quartiles and spread relative to the
/// median against a third of the metric's bound.
fn repeat(args: &Args) -> ExitCode {
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    for k in 0..args.repeat {
        let seed = args.seed + k as u64;
        let child_args: Vec<String> = [
            "--workload",
            &args.workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
            "--scale",
            &args.scale.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match child(&child_args) {
            Ok(result) => {
                let row: Vec<String> = END_TO_END
                    .iter()
                    .enumerate()
                    .map(|(i, (name, _, _))| {
                        let v = metric_value(&result, name).unwrap_or(f64::NAN);
                        values[i].push(v);
                        format!("{name}={v:.4}")
                    })
                    .collect();
                println!("run {k} seed {seed}: {}", row.join(" "));
            }
            Err(e) => {
                println!("run {k} seed {seed} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{:<18} {:>14} {:>14} {:>14} {:>9} {:>9}  verdict",
        "metric", "median", "q1", "q3", "spread", "bound/3"
    );
    let mut steady = true;
    for (i, (name, unit, bound)) in END_TO_END.iter().enumerate() {
        let (q1, med, q3) = quartiles(&values[i]);
        let spread = if med == 0.0 {
            f64::INFINITY
        } else {
            (q3 - q1) / med
        };
        let ok = spread < bound / 3.0 || *name == "setup_s";
        steady &= ok;
        let watched = WATCHED
            .iter()
            .any(|(w, m)| *w == args.workload && m == name);
        println!(
            "{:<18} {:>14.4} {:>14.4} {:>14.4} {:>8.2}% {:>8.2}%  {}{} [{unit}]",
            name,
            med,
            q1,
            q3,
            100.0 * spread,
            100.0 * bound / 3.0,
            if ok { "steady" } else { "NOISY" },
            if watched {
                " (watched: unsteady in an earlier version)"
            } else {
                ""
            },
        );
    }
    println!(
        "repeat: {} runs of {}, median setup_s {:.3} s",
        args.repeat,
        args.workload,
        median(&values[0])
    );
    if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload once untraced and once traced at tiny scale and
/// validates each result line: every metric present with its unit, a
/// finite value, and the correctness gates passed.
fn smoke() -> ExitCode {
    let mut ok = true;
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let child_args: Vec<String> = [
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "0.3",
                "--trace",
                trace,
                "--scale",
                "0.03",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            let expected: Vec<(&str, &str)> = if trace == "1" {
                PER_LAYER.to_vec()
            } else {
                END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect()
            };
            let verdict = child(&child_args).and_then(|result| {
                if result.get("correct").and_then(Json::as_bool) != Some(true) {
                    return Err("correct is not true".into());
                }
                if result.get("failed").and_then(Json::as_num) != Some(0.0) {
                    return Err("failed is not 0".into());
                }
                let metrics = result
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .ok_or("no metrics object")?;
                if metrics.len() != expected.len() {
                    return Err(format!(
                        "{} metrics, expected {}",
                        metrics.len(),
                        expected.len()
                    ));
                }
                for (name, unit) in &expected {
                    let m = result
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .ok_or(format!("missing {name}"))?;
                    if m.get("unit").and_then(Json::as_str) != Some(unit) {
                        return Err(format!("{name} has the wrong unit"));
                    }
                    if !m
                        .get("value")
                        .and_then(Json::as_num)
                        .is_some_and(f64::is_finite)
                    {
                        return Err(format!("{name} has no finite value"));
                    }
                }
                Ok(())
            });
            println!(
                "smoke {workload} trace {trace}: {}",
                verdict.as_ref().map_or_else(|e| e.as_str(), |_| "ok")
            );
            ok &= verdict.is_ok();
        }
    }
    let manifest = check_manifest();
    println!(
        "smoke BENCHMARK.json: {}",
        manifest.as_ref().map_or_else(|e| e.as_str(), |_| "ok")
    );
    ok &= manifest.is_ok();
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checks that `BENCHMARK.json` (in the working directory or its
/// parent) lists exactly this binary's workloads and metrics, with the
/// same units and bounds.
fn check_manifest() -> Result<(), String> {
    let text = ["BENCHMARK.json", "../BENCHMARK.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .ok_or("BENCHMARK.json not found")?;
    let doc = parse_json(&text)?;
    let list = |key: &str| -> Result<Vec<Json>, String> {
        Ok(doc
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("no {key} array"))?
            .to_vec())
    };
    let field = |j: &Json, k: &str| {
        j.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    let workloads: Vec<String> = list("workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    if workloads != WORKLOADS {
        return Err(format!("workloads {workloads:?} differ from {WORKLOADS:?}"));
    }
    let e2e: Vec<(String, String, f64)> = list("end_to_end")?
        .iter()
        .map(|m| {
            (
                field(m, "name"),
                field(m, "unit"),
                m.get("bound").and_then(Json::as_num).unwrap_or(f64::NAN),
            )
        })
        .collect();
    let expected: Vec<(String, String, f64)> = END_TO_END
        .iter()
        .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b))
        .collect();
    if e2e != expected {
        return Err(format!("end_to_end {e2e:?} differs from {expected:?}"));
    }
    let layers: Vec<(String, String)> = list("per_layer")?
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    let expected: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    if layers != expected {
        return Err("per_layer differs from the binary's list".into());
    }
    Ok(())
}
