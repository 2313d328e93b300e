//! The `twpp` subcommands.
//!
//! ```text
//! twpp run <prog.twl> [--input 1,2,3]
//! twpp trace <prog.twl> -o <out.wpp> [--input 1,2,3]
//! twpp compact <in.wpp> -o <out.twpa> [--program <prog.twl>] [--threads N] [--stats]
//! twpp ingest <dir> --from <in.wpp|-> [--seal-bytes N] [--seal-ms N] [--chunk-events N]
//! twpp serve-ingest <dir> [--listen tcp:H:P|unix:PATH] [--port-file F] [--tail F]...
//!                         [--admin tcp:H:P|unix:PATH] [--log-out F]
//! twpp net-feed <addr> --source <name> --from <in.wpp|-> [--drain]
//! twpp status <addr> [--json] [--watch N]
//! twpp metrics-check <file-or-addr>
//! twpp info <file.wpp|file.twpa>
//! twpp query <file.twpa> <func-id-or-name>
//! twpp fsck <file.twpa|file.wpp|dir> [--repair [-o <out>]] [--threads N]
//! twpp report-check <report.json>
//! twpp sequitur <in.wpp>
//! twpp selftest [--seed N] [--cases K] [--max-events M] [--out-dir D] [--threads N]
//! ```
//!
//! `ingest` is the crash-safe incremental path: events are fed to a
//! resumable [`twpp::ingest::Compactor`] in chunks, made durable in a
//! write-ahead log, sealed into raw segments, and compacted once into a
//! `merged.twpa` byte-identical to a batch `compact` of the same
//! stream. Rerunning `ingest` on a directory a killed process left
//! behind resumes exactly where it stopped. `fsck` on such a directory
//! chain-validates the manifests, verifies every segment and replays
//! the WAL.
//!
//! `serve-ingest` is the long-lived form (DESIGN.md §17): a daemon
//! accepting framed event streams over TCP/Unix sockets and tailed
//! files, one resumable compactor per source under `<dir>/<source>/`,
//! with backpressure (BUSY + retry-after), per-connection quarantine of
//! garbage, a watchdog failing wedged sources in isolation, and a
//! graceful drain on SIGTERM that merges every source. `net-feed` is
//! the matching client. With `--admin` the daemon also serves a live
//! telemetry plane (DESIGN.md §18): `/metrics`, `/status` and
//! `/healthz` over plain HTTP, which `status` renders as a per-source
//! table and `metrics-check` validates against the strict Prometheus
//! text-format parser.
//!
//! `--threads N` caps the worker pool used by the parallel compaction and
//! verification stages (default: `TWPP_THREADS` or the machine's available
//! parallelism). `--stats` adds per-stage wall time and worker utilisation
//! to the `compact` report.
//!
//! The observability flags (`--trace-out`, `--metrics-out`, `--report`)
//! switch a verb from the no-op observer to a collecting one and write
//! Chrome trace-event spans, Prometheus metrics, and the machine-readable
//! run report (DESIGN.md §13). With none of them given, the run is
//! byte-identical to an uninstrumented build.
//!
//! Each verb reads a declared set of flags (`VERB_FLAGS`); any other flag
//! is a usage error, so a flag meant for another verb is never silently
//! ignored.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use twpp::daemon::ServeListener;
use twpp::ingest::SegmentVerdict;
use twpp::obs::BudgetSection;
use twpp::{ArchiveError, GovOptions, Obs, PipelineStats, RunOutcome, RunReport, TwppArchive};
use twpp_ir::FuncId;
use twpp_tracer::{run_traced, ExecLimits, RawWpp};

/// Errors surfaced to the user.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Wrong usage; the message holds the usage text.
    Usage(String),
    /// The command finished but produced a *partial or degraded* result:
    /// a compact run that skipped failed functions, a query cut short by
    /// its budget, or an fsck verdict of "intact but degraded". Maps to
    /// exit code 3; everything that was written or printed is valid.
    Degraded(String),
    /// Any underlying failure (I/O, compilation, malformed files, …).
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Degraded(msg) => write!(f, "{msg}"),
            CliError::Failed(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for CliError {}

/// Process exit code for an error: `2` usage, `3` partial/degraded
/// result, `4` hard failure. Success is `0`.
pub fn exit_code(e: &CliError) -> i32 {
    match e {
        CliError::Usage(_) => 2,
        CliError::Degraded(_) => 3,
        CliError::Failed(_) => 4,
    }
}

fn fail(e: impl fmt::Display) -> CliError {
    CliError::Failed(e.to_string())
}

/// The single fallible sink every piece of CLI output goes through.
///
/// `write!`/`writeln!` resolve to the inherent [`Out::write_fmt`], so a
/// broken pipe or full disk surfaces as one [`CliError::Failed`] at the
/// first failed print instead of being sprinkled as ad-hoc `map_err`
/// calls (or worse, panics) across every command.
pub struct Out<'a> {
    w: &'a mut dyn Write,
}

impl<'a> Out<'a> {
    /// Wraps a raw writer.
    pub fn new(w: &'a mut dyn Write) -> Out<'a> {
        Out { w }
    }

    /// The method `write!`/`writeln!` expand to; maps the I/O error.
    ///
    /// # Errors
    ///
    /// [`CliError::Failed`] when the underlying writer fails.
    pub fn write_fmt(&mut self, args: fmt::Arguments<'_>) -> Result<(), CliError> {
        self.w
            .write_fmt(args)
            .map_err(|e| CliError::Failed(format!("output write failed: {e}")))
    }
}

const USAGE: &str = "\
usage:
  twpp run <prog.twl> [--input 1,2,3]       compile and execute a program
  twpp trace <prog.twl> -o <out.wpp>        collect its whole program path
  twpp compact <in.wpp> -o <out.twpa> [--program <prog.twl>] [--threads N] [--stats]
                                            compact a WPP into a TWPP archive
                                            (--program embeds function names;
                                            --stats prints stage timings)
  twpp ingest <dir> --from <in.wpp|->       feed a WPP through the crash-safe
                                            incremental compactor: WAL + sealed
                                            raw segments in <dir>, then one
                                            compaction into a merged archive
                                            byte-identical to `compact`;
                                            rerunning resumes after a crash
      --seal-bytes N    seal the open window at N encoded bytes (default 1 MiB)
      --seal-ms N       additionally seal windows older than N ms
      --chunk-events N  events per feed batch (default 1024)
  twpp serve-ingest <dir>                   fault-tolerant streaming ingestion
                                            daemon: framed WPP event streams over
                                            TCP/Unix sockets and tailed files,
                                            one crash-safe compactor per source
                                            under <dir>/<source>/; drains
                                            gracefully on SIGTERM/SIGINT, merging
                                            every source byte-identically to an
                                            uninterrupted batch run
      --listen SPEC     tcp:HOST:PORT or unix:PATH (default tcp:127.0.0.1:0)
      --port-file F     write the bound address to F once listening
      --drain-after-ms N  self-drain after N ms (tests without signals)
      --window-cap N    shed load with BUSY past N open-window bytes
                        (default 4 x --seal-bytes)
      --wedge-ms N      watchdog deadline: fail a source whose durable
                        operation wedges past N ms (default 10000)
      --tail F          also ingest appended bytes of file F (repeatable)
      --admin SPEC      also serve the admin telemetry plane on SPEC
                        (tcp:HOST:PORT or unix:PATH): GET /metrics
                        (Prometheus text), /status (JSON), /healthz
      --admin-port-file F  write the bound admin address to F
      --log-out F       append structured JSONL logs to F (rotates to
                        F.1 past 8 MiB); also arms the crash flight
                        recorder, dumped to <dir>/flightrec-<ts>.json
                        when a source is failed or the daemon aborts
  twpp net-feed <addr> --source <name> --from <in.wpp|->
                                            stream a WPP to a serve-ingest
                                            daemon: resumes from the server's
                                            durable position, honours BUSY
                                            retry-after hints, loses nothing
      --drain           request a daemon-wide graceful drain after feeding
  twpp status <addr> [--json] [--watch N]   fetch /status from a daemon's admin
                                            plane and render it as a per-source
                                            table (--json prints the raw JSON;
                                            --watch refreshes every N seconds)
  twpp metrics-check <file-or-addr>         validate Prometheus text exposition
                                            (a --metrics-out file, or /metrics
                                            fetched from an admin address)
                                            against the strict format checker
  twpp info <file.wpp|file.twpa>            summarize a trace or archive
  twpp query <file.twpa> <func-id-or-name>  extract one function's traces
      --remote ADDR     send the request to a `twpp serve` daemon instead
                        of reading a local file: the first operand becomes
                        the served archive name (file stem) and the output
                        is byte-identical to the local command
  twpp slice <file.twpa> <func> <trace> <block>
                                            backward dynamic slice of one
                                            unique trace from a criterion
                                            block (sorted static blocks in
                                            the closure); --remote as query
  twpp currency <file.twpa> <func> <trace> <def-block> <use-block>
                                            paper §4.2 currency query: in how
                                            many executions of the use block
                                            is the def current (not killed by
                                            a --redef block)? --remote as query
      --redef B         a redefining block id (repeatable)
  twpp serve <dir>                          multi-tenant query daemon over
                                            every *.twpa under <dir>: answers
                                            query/slice/currency/list/stat
                                            over the framed protocol, rescans
                                            the fleet root, shares one
                                            byte-capped frame cache and one
                                            answer-summary cache
      --listen SPEC     tcp:HOST:PORT or unix:PATH (default tcp:127.0.0.1:0)
      --port-file F     write the bound address to F once listening
      --drain-after-ms N  self-drain after N ms (tests without signals)
      --default-deadline-ms N  per-request wall-clock budget when the
                        client sends none (default: unlimited)
      --rescan-ms N     fleet-root rescan interval (default 1000)
      --max-inflight N  admission cap; excess requests get BUSY (default 64)
      --no-cache        solve every request from the archive (no answer
                        summary cache)
      --frame-cache-bytes N    decoded-frame cache cap (default 64 MiB)
      --summary-cache-bytes N  answer-summary cache cap (default 8 MiB)
      --admin SPEC      admin telemetry plane: /metrics /status /healthz
      --admin-port-file F  write the bound admin address to F
  twpp serve-bench <addr> [--clients N] [--requests M] [--json]
                                            hammer a running serve daemon
                                            with N concurrent clients x M
                                            queries each and report p50/p99
                                            client-side latency (--admin ADDR
                                            also scrapes cache hit rates)
  twpp gen-fleet <dir> [--archives N] [--seed S] [--scale F]
                                            write N seeded workload archives
                                            (cycling the five SPECint95
                                            profiles) as a serve fleet root
  twpp fsck <file.twpa|file.wpp|dir> [--repair [-o <out>]] [--threads N]
                                            verify checksums; --repair writes a
                                            salvaged copy of a damaged file; on
                                            an ingest directory, validate the
                                            segment chain and WAL
  twpp report-check <report.json>           validate a --report file against
                                            the run-report schema
  twpp sequitur <in.wpp>                    compress with the Sequitur baseline
  twpp selftest [--seed N] [--cases K] [--max-events M] [--out-dir D]
                                            run the conformance battery: the
                                            optimized pipeline against naive
                                            reference oracles and metamorphic
                                            relations; failing cases are shrunk
                                            to minimal reproducers in the out
                                            dir (defaults: seed 42, 100 cases)

threads (compact/ingest/serve-ingest/fsck/gen-fleet/selftest):
  --threads N       cap the worker pool (default: TWPP_THREADS or the
                    machine's available parallelism); for selftest, the
                    largest thread count the byte-identity checks compare
                    against

codec (compact/ingest/serve-ingest):
  --codec legacy|adaptive
                    timestamp-set encoder for written archives. legacy
                    (default) is byte-identical to older releases;
                    adaptive picks the smallest of the series, raw and
                    delta-delta encodings per block — never larger than
                    legacy, and every reader decodes both

durability (compact/ingest/serve-ingest):
  --durability none|flush|sync
                    how hard written bytes are pushed toward stable
                    storage before success is reported (compact default:
                    flush; ingest and serve-ingest default: sync — an
                    acknowledged event survives a power cut)

retry (ingest/serve-ingest/net-feed):
  --retry-attempts N  total attempts for transient I/O and BUSY rounds
                      (default: ingest 1, serve-ingest 5, net-feed 8)
  --retry-base-ms N   exponential-backoff base delay (default 5)
  --retry-cap-ms N    backoff delay cap (default 200)
  --retry-seed N      deterministic jitter seed (default 42)

governance (compact/ingest/serve-ingest/query/slice/currency/serve-bench):
  --deadline-ms N   stop after N milliseconds of wall-clock time
                    (ingest: backpressure — seal early, keep going;
                    serve-bench: sent as each request's budget)
  --max-events N    stop after charging N work steps (events, traces)
  --degrade         compact/ingest/serve-ingest: isolate per-function
                    failures and write an archive of the surviving
                    functions (exit 3)
  --fail-fast       compact/ingest/serve-ingest: abort on the first
                    failure (default)

observability (compact/ingest/serve-ingest/fsck/query/slice/currency/serve/selftest):
  --trace-out <f>   write spans as Chrome trace-event JSON
  --metrics-out <f> write metrics in Prometheus text format
  --report <f>      write the machine-readable run report (JSON)

A flag the verb does not read is a usage error.

exit codes: 0 complete, 2 usage, 3 partial or degraded result, 4 failure";

/// Destination paths for the observability artifacts. Any one of them
/// switches the run from the no-op observer to a collecting one.
#[derive(Default)]
struct ObsFiles {
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    report_out: Option<PathBuf>,
}

impl ObsFiles {
    fn enabled(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.report_out.is_some()
    }

    /// The observer for this run: collecting iff any artifact was
    /// requested, so unobserved runs stay on the noop fast path.
    fn observer(&self) -> Obs {
        if self.enabled() {
            Obs::collecting()
        } else {
            Obs::noop()
        }
    }

    /// Writes the requested artifacts. The report gains the metrics
    /// snapshot and span count here, so callers only fill the
    /// command-specific sections (outcome, pipeline, fsck, budget).
    fn emit(&self, obs: &Obs, mut report: RunReport, out: &mut Out<'_>) -> Result<(), CliError> {
        if !self.enabled() {
            return Ok(());
        }
        report.metrics = obs.snapshot();
        report.span_count = obs.span_count() as u64;
        if let Some(p) = &self.trace_out {
            fs::write(p, obs.chrome_trace_json())
                .map_err(|e| fail(format!("{}: {e}", p.display())))?;
            writeln!(out, "wrote trace events {}", p.display())?;
        }
        if let Some(p) = &self.metrics_out {
            fs::write(p, obs.prometheus_text())
                .map_err(|e| fail(format!("{}: {e}", p.display())))?;
            writeln!(out, "wrote metrics {}", p.display())?;
        }
        if let Some(p) = &self.report_out {
            let json = report.to_json();
            debug_assert!(
                twpp::validate_report_json(&json).is_ok(),
                "emitted report must satisfy its own schema"
            );
            fs::write(p, json).map_err(|e| fail(format!("{}: {e}", p.display())))?;
            writeln!(out, "wrote run report {}", p.display())?;
        }
        Ok(())
    }
}

/// The budget section of a run report, read back from a spent budget.
fn budget_section(budget: &twpp::Budget) -> BudgetSection {
    BudgetSection {
        limited: !budget.is_unlimited(),
        steps_used: budget.steps_used(),
        bytes_used: budget.bytes_used(),
    }
}

/// The governance flags: a wall-clock deadline and a work-step cap.
const GOVERNANCE: &[&str] = &["--deadline-ms", "--max-events"];
/// The observability artifact flags (see [`ObsFiles`]).
const OBSERVABILITY: &[&str] = &["--trace-out", "--metrics-out", "--report"];
/// The retry-policy flags of the ingest paths.
const RETRY: &[&str] = &[
    "--retry-attempts",
    "--retry-base-ms",
    "--retry-cap-ms",
    "--retry-seed",
];
/// The flags of the verbs that compact into an archive: the degrade
/// policy, durability and the timestamp-set codec.
const ARCHIVE_WRITE: &[&str] = &["--degrade", "--fail-fast", "--durability", "--codec"];
/// The serve daemons' listener and admin-plane flags.
const DAEMON: &[&str] = &[
    "--listen",
    "--port-file",
    "--drain-after-ms",
    "--admin",
    "--admin-port-file",
];

/// The flags each verb reads, as groups. Any other flag is a usage error
/// naming the flag and the verb, so a flag meant for another verb is not
/// silently ignored. `--help` is answered before any verb is looked at.
const VERB_FLAGS: &[(&str, &[&[&str]])] = &[
    ("run", &[&["--input"]]),
    ("trace", &[&["-o", "--output", "--input"]]),
    (
        "compact",
        &[
            &["-o", "--output", "--program", "--threads", "--stats"],
            ARCHIVE_WRITE,
            GOVERNANCE,
            OBSERVABILITY,
        ],
    ),
    (
        "ingest",
        &[
            &[
                "--from",
                "--seal-bytes",
                "--seal-ms",
                "--chunk-events",
                "--threads",
            ],
            ARCHIVE_WRITE,
            GOVERNANCE,
            RETRY,
            OBSERVABILITY,
        ],
    ),
    (
        "serve-ingest",
        &[
            DAEMON,
            &[
                "--seal-bytes",
                "--seal-ms",
                "--threads",
                "--window-cap",
                "--wedge-ms",
            ],
            &["--tail", "--log-out"],
            ARCHIVE_WRITE,
            GOVERNANCE,
            RETRY,
            OBSERVABILITY,
        ],
    ),
    (
        "net-feed",
        &[&["--source", "--from", "--drain", "--chunk-events"], RETRY],
    ),
    ("status", &[&["--json", "--watch"]]),
    ("metrics-check", &[]),
    ("info", &[]),
    ("query", &[&["--remote"], GOVERNANCE, OBSERVABILITY]),
    ("slice", &[&["--remote"], GOVERNANCE, OBSERVABILITY]),
    (
        "currency",
        &[&["--remote", "--redef"], GOVERNANCE, OBSERVABILITY],
    ),
    (
        "serve",
        &[
            DAEMON,
            &["--default-deadline-ms", "--rescan-ms", "--max-inflight"],
            &["--no-cache", "--frame-cache-bytes", "--summary-cache-bytes"],
            OBSERVABILITY,
        ],
    ),
    (
        "serve-bench",
        &[
            &["--clients", "--requests", "--admin", "--json"],
            GOVERNANCE,
        ],
    ),
    (
        "gen-fleet",
        &[&["--archives", "--seed", "--scale", "--threads"]],
    ),
    (
        "fsck",
        &[&["--repair", "-o", "--output", "--threads"], OBSERVABILITY],
    ),
    ("report-check", &[]),
    ("sequitur", &[]),
    (
        "selftest",
        &[
            &[
                "--seed",
                "--cases",
                "--max-events",
                "--out-dir",
                "--threads",
            ],
            OBSERVABILITY,
        ],
    ),
];

/// The flag groups `verb` reads, or `None` for an unknown verb.
fn verb_flags(verb: &str) -> Option<&'static [&'static [&'static str]]> {
    VERB_FLAGS
        .iter()
        .find(|(v, _)| *v == verb)
        .map(|(_, groups)| *groups)
}

/// A verb's accepted flags, for the usage error.
fn flag_list(groups: &[&[&str]]) -> String {
    let flags: Vec<&str> = groups.iter().flat_map(|g| g.iter().copied()).collect();
    if flags.is_empty() {
        "it takes no flags".to_owned()
    } else {
        format!("it takes {}", flags.join(" "))
    }
}

/// Parses `args` and executes the selected command, writing human-readable
/// output to `out`.
///
/// # Errors
///
/// Returns [`CliError::Usage`] for malformed invocations and
/// [`CliError::Failed`] for runtime failures.
pub fn run_command(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let out = &mut Out::new(out);
    let mut positional: Vec<&str> = Vec::new();
    let mut output: Option<&str> = None;
    let mut program_path: Option<&str> = None;
    let mut input: Vec<i64> = Vec::new();
    let mut repair = false;
    let mut threads: Option<usize> = None;
    let mut stats = false;
    let mut limits = twpp::Limits::new();
    let mut degrade = false;
    let mut obs_files = ObsFiles::default();
    let mut seed: Option<u64> = None;
    let mut cases: Option<usize> = None;
    let mut max_events: Option<u64> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut from: Option<String> = None;
    let mut seal_bytes: Option<u64> = None;
    let mut seal_ms: Option<u64> = None;
    let mut chunk_events: Option<usize> = None;
    let mut durability: Option<twpp::Durability> = None;
    let mut codec: Option<twpp::Codec> = None;
    let mut listen: Option<String> = None;
    let mut port_file: Option<PathBuf> = None;
    let mut drain_after_ms: Option<u64> = None;
    let mut window_cap: Option<u64> = None;
    let mut wedge_ms: Option<u64> = None;
    let mut retry_attempts: Option<u32> = None;
    let mut retry_base_ms: Option<u64> = None;
    let mut retry_cap_ms: Option<u64> = None;
    let mut retry_seed: Option<u64> = None;
    let mut tails: Vec<PathBuf> = Vec::new();
    let mut source: Option<String> = None;
    let mut drain = false;
    let mut admin: Option<String> = None;
    let mut admin_port_file: Option<PathBuf> = None;
    let mut log_out: Option<PathBuf> = None;
    let mut json = false;
    let mut watch: Option<u64> = None;
    let mut remote: Option<String> = None;
    let mut default_deadline_ms: Option<u64> = None;
    let mut rescan_ms: Option<u64> = None;
    let mut max_inflight: Option<u64> = None;
    let mut no_cache = false;
    let mut frame_cache_bytes: Option<u64> = None;
    let mut summary_cache_bytes: Option<u64> = None;
    let mut redefs: Vec<u32> = Vec::new();
    let mut clients: Option<usize> = None;
    let mut requests: Option<usize> = None;
    let mut archives: Option<usize> = None;
    let mut scale: Option<f64> = None;
    let mut given: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "-o" | "--output" => {
                i += 1;
                output = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::Usage("-o needs a path".into()))?,
                );
            }
            "--program" => {
                i += 1;
                program_path = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::Usage("--program needs a path".into()))?,
                );
            }
            "--input" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--input needs values".into()))?;
                input = raw
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse::<i64>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| CliError::Usage(format!("bad --input: {e}")))?;
            }
            "--repair" => repair = true,
            "--stats" => stats = true,
            "--from" => {
                i += 1;
                from = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::Usage("--from needs a path or -".into()))?
                        .clone(),
                );
            }
            "--seal-bytes" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--seal-bytes needs a count".into()))?;
                let n = raw
                    .parse::<u64>()
                    .map_err(|e| CliError::Usage(format!("bad --seal-bytes: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--seal-bytes must be at least 1".into()));
                }
                seal_bytes = Some(n);
            }
            "--seal-ms" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--seal-ms needs a count".into()))?;
                seal_ms = Some(
                    raw.parse::<u64>()
                        .map_err(|e| CliError::Usage(format!("bad --seal-ms: {e}")))?,
                );
            }
            "--chunk-events" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--chunk-events needs a count".into()))?;
                let n = raw
                    .parse::<usize>()
                    .map_err(|e| CliError::Usage(format!("bad --chunk-events: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--chunk-events must be at least 1".into()));
                }
                chunk_events = Some(n);
            }
            "--durability" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--durability needs none|flush|sync".into()))?;
                durability = Some(twpp::Durability::parse(raw).ok_or_else(|| {
                    CliError::Usage(format!("bad --durability `{raw}`: use none|flush|sync"))
                })?);
            }
            "--codec" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--codec needs legacy|adaptive".into()))?;
                codec = Some(twpp::Codec::parse(raw).ok_or_else(|| {
                    CliError::Usage(format!("bad --codec `{raw}`: use legacy|adaptive"))
                })?);
            }
            "--degrade" => degrade = true,
            "--fail-fast" => degrade = false,
            "--listen" => {
                i += 1;
                listen = Some(
                    args.get(i)
                        .ok_or_else(|| {
                            CliError::Usage("--listen needs tcp:HOST:PORT or unix:PATH".into())
                        })?
                        .clone(),
                );
            }
            "--port-file" => {
                i += 1;
                let p = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--port-file needs a path".into()))?;
                port_file = Some(PathBuf::from(p));
            }
            "--drain-after-ms" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--drain-after-ms needs a count".into()))?;
                drain_after_ms = Some(
                    raw.parse::<u64>()
                        .map_err(|e| CliError::Usage(format!("bad --drain-after-ms: {e}")))?,
                );
            }
            "--window-cap" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--window-cap needs a byte count".into()))?;
                let n = raw
                    .parse::<u64>()
                    .map_err(|e| CliError::Usage(format!("bad --window-cap: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--window-cap must be at least 1".into()));
                }
                window_cap = Some(n);
            }
            "--wedge-ms" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--wedge-ms needs a count".into()))?;
                let n = raw
                    .parse::<u64>()
                    .map_err(|e| CliError::Usage(format!("bad --wedge-ms: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--wedge-ms must be at least 1".into()));
                }
                wedge_ms = Some(n);
            }
            "--retry-attempts" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--retry-attempts needs a count".into()))?;
                let n = raw
                    .parse::<u32>()
                    .map_err(|e| CliError::Usage(format!("bad --retry-attempts: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--retry-attempts must be at least 1".into()));
                }
                retry_attempts = Some(n);
            }
            "--retry-base-ms" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--retry-base-ms needs a count".into()))?;
                retry_base_ms = Some(
                    raw.parse::<u64>()
                        .map_err(|e| CliError::Usage(format!("bad --retry-base-ms: {e}")))?,
                );
            }
            "--retry-cap-ms" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--retry-cap-ms needs a count".into()))?;
                retry_cap_ms = Some(
                    raw.parse::<u64>()
                        .map_err(|e| CliError::Usage(format!("bad --retry-cap-ms: {e}")))?,
                );
            }
            "--retry-seed" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--retry-seed needs a number".into()))?;
                retry_seed = Some(
                    raw.parse::<u64>()
                        .map_err(|e| CliError::Usage(format!("bad --retry-seed: {e}")))?,
                );
            }
            "--tail" => {
                i += 1;
                let p = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--tail needs a path".into()))?;
                tails.push(PathBuf::from(p));
            }
            "--source" => {
                i += 1;
                source = Some(
                    args.get(i)
                        .ok_or_else(|| CliError::Usage("--source needs a name".into()))?
                        .clone(),
                );
            }
            "--drain" => drain = true,
            "--admin" => {
                i += 1;
                admin = Some(
                    args.get(i)
                        .ok_or_else(|| {
                            CliError::Usage("--admin needs tcp:HOST:PORT or unix:PATH".into())
                        })?
                        .clone(),
                );
            }
            "--admin-port-file" => {
                i += 1;
                let p = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--admin-port-file needs a path".into()))?;
                admin_port_file = Some(PathBuf::from(p));
            }
            "--log-out" => {
                i += 1;
                let p = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--log-out needs a path".into()))?;
                log_out = Some(PathBuf::from(p));
            }
            "--remote" => {
                i += 1;
                remote = Some(
                    args.get(i)
                        .ok_or_else(|| {
                            CliError::Usage("--remote needs tcp:HOST:PORT or unix:PATH".into())
                        })?
                        .clone(),
                );
            }
            "--default-deadline-ms" => {
                i += 1;
                let raw = args.get(i).ok_or_else(|| {
                    CliError::Usage("--default-deadline-ms needs a count".into())
                })?;
                default_deadline_ms = Some(
                    raw.parse::<u64>()
                        .map_err(|e| CliError::Usage(format!("bad --default-deadline-ms: {e}")))?,
                );
            }
            "--rescan-ms" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--rescan-ms needs a count".into()))?;
                let n = raw
                    .parse::<u64>()
                    .map_err(|e| CliError::Usage(format!("bad --rescan-ms: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--rescan-ms must be at least 1".into()));
                }
                rescan_ms = Some(n);
            }
            "--max-inflight" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--max-inflight needs a count".into()))?;
                let n = raw
                    .parse::<u64>()
                    .map_err(|e| CliError::Usage(format!("bad --max-inflight: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--max-inflight must be at least 1".into()));
                }
                max_inflight = Some(n);
            }
            "--no-cache" => no_cache = true,
            "--frame-cache-bytes" => {
                i += 1;
                let raw = args.get(i).ok_or_else(|| {
                    CliError::Usage("--frame-cache-bytes needs a byte count".into())
                })?;
                let n = raw
                    .parse::<u64>()
                    .map_err(|e| CliError::Usage(format!("bad --frame-cache-bytes: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--frame-cache-bytes must be at least 1".into()));
                }
                frame_cache_bytes = Some(n);
            }
            "--summary-cache-bytes" => {
                i += 1;
                let raw = args.get(i).ok_or_else(|| {
                    CliError::Usage("--summary-cache-bytes needs a byte count".into())
                })?;
                let n = raw
                    .parse::<u64>()
                    .map_err(|e| CliError::Usage(format!("bad --summary-cache-bytes: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage(
                        "--summary-cache-bytes must be at least 1".into(),
                    ));
                }
                summary_cache_bytes = Some(n);
            }
            "--redef" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--redef needs a block id".into()))?;
                redefs.push(
                    raw.parse::<u32>()
                        .map_err(|e| CliError::Usage(format!("bad --redef: {e}")))?,
                );
            }
            "--clients" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--clients needs a count".into()))?;
                let n = raw
                    .parse::<usize>()
                    .map_err(|e| CliError::Usage(format!("bad --clients: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--clients must be at least 1".into()));
                }
                clients = Some(n);
            }
            "--requests" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--requests needs a count".into()))?;
                let n = raw
                    .parse::<usize>()
                    .map_err(|e| CliError::Usage(format!("bad --requests: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--requests must be at least 1".into()));
                }
                requests = Some(n);
            }
            "--archives" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--archives needs a count".into()))?;
                let n = raw
                    .parse::<usize>()
                    .map_err(|e| CliError::Usage(format!("bad --archives: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--archives must be at least 1".into()));
                }
                archives = Some(n);
            }
            "--scale" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--scale needs a factor".into()))?;
                let f = raw
                    .parse::<f64>()
                    .map_err(|e| CliError::Usage(format!("bad --scale: {e}")))?;
                if !(f.is_finite() && f > 0.0) {
                    return Err(CliError::Usage("--scale must be a positive number".into()));
                }
                scale = Some(f);
            }
            "--json" => json = true,
            "--watch" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--watch needs a count of seconds".into()))?;
                let n = raw
                    .parse::<u64>()
                    .map_err(|e| CliError::Usage(format!("bad --watch: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--watch must be at least 1".into()));
                }
                watch = Some(n);
            }
            "--trace-out" => {
                i += 1;
                let p = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--trace-out needs a path".into()))?;
                obs_files.trace_out = Some(PathBuf::from(p));
            }
            "--metrics-out" => {
                i += 1;
                let p = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--metrics-out needs a path".into()))?;
                obs_files.metrics_out = Some(PathBuf::from(p));
            }
            "--report" => {
                i += 1;
                let p = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--report needs a path".into()))?;
                obs_files.report_out = Some(PathBuf::from(p));
            }
            "--deadline-ms" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--deadline-ms needs a count".into()))?;
                let ms = raw
                    .parse::<u64>()
                    .map_err(|e| CliError::Usage(format!("bad --deadline-ms: {e}")))?;
                limits = limits.deadline_ms(ms);
            }
            "--max-events" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--max-events needs a count".into()))?;
                let n = raw
                    .parse::<u64>()
                    .map_err(|e| CliError::Usage(format!("bad --max-events: {e}")))?;
                max_events = Some(n);
                limits = limits.max_steps(n);
            }
            "--seed" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--seed needs a number".into()))?;
                seed = Some(
                    raw.parse::<u64>()
                        .map_err(|e| CliError::Usage(format!("bad --seed: {e}")))?,
                );
            }
            "--cases" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--cases needs a count".into()))?;
                let n = raw
                    .parse::<usize>()
                    .map_err(|e| CliError::Usage(format!("bad --cases: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--cases must be at least 1".into()));
                }
                cases = Some(n);
            }
            "--out-dir" => {
                i += 1;
                let p = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--out-dir needs a path".into()))?;
                out_dir = Some(PathBuf::from(p));
            }
            "--threads" => {
                i += 1;
                let raw = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--threads needs a count".into()))?;
                let n = raw
                    .parse::<usize>()
                    .map_err(|e| CliError::Usage(format!("bad --threads: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--threads must be at least 1".into()));
                }
                threads = Some(n);
            }
            "--help" | "-h" => {
                writeln!(out, "{USAGE}")?;
                return Ok(());
            }
            other => {
                positional.push(other);
                i += 1;
                continue;
            }
        }
        given.push(arg);
        i += 1;
    }
    let verb = positional.first().copied().unwrap_or_default();
    if let Some(accepted) = verb_flags(verb) {
        if let Some(flag) = given
            .iter()
            .find(|f| !accepted.iter().any(|g| g.contains(f)))
        {
            let takes = flag_list(accepted);
            return Err(CliError::Usage(format!(
                "`{verb}` does not take `{flag}` ({takes})"
            )));
        }
    }
    // Flags a verb reads in one of its modes but not in another.
    let mode_ignores: Option<(&[&str], &str)> = match positional.as_slice() {
        ["query" | "slice" | "currency", ..] if remote.is_some() => {
            Some((OBSERVABILITY, "with `--remote`"))
        }
        ["fsck", path] if Path::new(path).is_dir() => Some((
            &["--repair", "-o", "--output", "--threads"],
            "on an ingest directory",
        )),
        _ => None,
    };
    if let Some((ignored, mode)) = mode_ignores {
        if let Some(flag) = given.iter().find(|f| ignored.contains(f)) {
            return Err(CliError::Usage(format!(
                "`{verb}` does not take `{flag}` {mode}"
            )));
        }
    }
    let usage = || CliError::Usage(USAGE.to_owned());
    let daemon = DaemonFlags {
        listen: listen.unwrap_or_else(|| "tcp:127.0.0.1:0".into()),
        port_file,
        admin: admin.clone(),
        admin_port_file,
        drain_after_ms,
    };
    let retry_policy = |default_attempts: u32| {
        twpp::Retry::new(
            retry_attempts.unwrap_or(default_attempts),
            retry_base_ms.unwrap_or(5),
            retry_cap_ms.unwrap_or(200),
            retry_seed.unwrap_or(42),
        )
    };
    match positional.as_slice() {
        ["run", path] => cmd_run(Path::new(path), &input, out),
        ["trace", path] => {
            let output = output.ok_or_else(usage)?;
            cmd_trace(Path::new(path), &input, Path::new(output), out)
        }
        ["compact", path] => {
            let output = output.ok_or_else(usage)?;
            cmd_compact(
                Path::new(path),
                Path::new(output),
                program_path.map(Path::new),
                threads,
                stats,
                limits,
                degrade,
                durability.unwrap_or(twpp::Durability::Flush),
                codec.unwrap_or_default(),
                &obs_files,
                out,
            )
        }
        ["ingest", dir] => {
            let from = from.ok_or_else(usage)?;
            cmd_ingest(
                Path::new(dir),
                &from,
                IngestFlags {
                    seal_bytes,
                    seal_ms,
                    chunk_events: chunk_events.unwrap_or(1024),
                    durability: durability.unwrap_or(twpp::Durability::Sync),
                    codec: codec.unwrap_or_default(),
                    threads,
                    limits,
                    degrade,
                    retry: retry_policy(1),
                },
                &obs_files,
                out,
            )
        }
        ["serve-ingest", dir] => {
            let seal_bytes = seal_bytes.unwrap_or(1 << 20);
            let opts = twpp::ingest::ServeOptions {
                seal_bytes,
                seal_ms,
                durability: durability.unwrap_or(twpp::Durability::Sync),
                threads,
                limits,
                fail_fast: !degrade,
                retry: retry_policy(5),
                window_cap_bytes: window_cap.unwrap_or(4 * seal_bytes),
                wedge_ms: wedge_ms.unwrap_or(10_000),
                codec: codec.unwrap_or_default(),
                tails,
                ..twpp::ingest::ServeOptions::default()
            };
            cmd_serve_ingest(Path::new(dir), daemon, log_out, opts, &obs_files, out)
        }
        ["status", addr] => cmd_status(addr, json, watch, out),
        ["metrics-check", target] => cmd_metrics_check(target, out),
        ["net-feed", addr] => {
            let from = from.ok_or_else(usage)?;
            let source = source.ok_or_else(|| {
                CliError::Usage("net-feed needs --source <name>".into())
            })?;
            cmd_net_feed(
                addr,
                &source,
                &from,
                drain,
                chunk_events.unwrap_or(1024),
                retry_policy(8),
                out,
            )
        }
        ["info", path] => cmd_info(Path::new(path), out),
        ["fsck", path] => cmd_fsck(
            Path::new(path),
            repair,
            output.map(Path::new),
            threads,
            &obs_files,
            out,
        ),
        ["query", path, func] => match &remote {
            Some(addr) => cmd_query_remote(addr, path, func, limits, out),
            None => cmd_query(Path::new(path), func, limits, &obs_files, out),
        },
        ["slice", path, func, trace, criterion] => {
            let trace = parse_wire_u32(trace, "trace index")?;
            let criterion = parse_wire_u32(criterion, "criterion block")?;
            match &remote {
                Some(addr) => cmd_slice_remote(addr, path, func, trace, criterion, limits, out),
                None => cmd_slice(
                    Path::new(path),
                    func,
                    trace,
                    criterion,
                    limits,
                    &obs_files,
                    out,
                ),
            }
        }
        ["currency", path, func, trace, def, use_] => {
            let trace = parse_wire_u32(trace, "trace index")?;
            let def = parse_wire_u32(def, "def block")?;
            let use_ = parse_wire_u32(use_, "use block")?;
            match &remote {
                Some(addr) => {
                    cmd_currency_remote(addr, path, func, trace, def, use_, &redefs, limits, out)
                }
                None => cmd_currency(
                    Path::new(path),
                    func,
                    trace,
                    def,
                    use_,
                    &redefs,
                    limits,
                    &obs_files,
                    out,
                ),
            }
        }
        ["serve", dir] => {
            let defaults = twpp_server::ServeOptions::default();
            let opts = twpp_server::ServeOptions {
                default_deadline_ms: default_deadline_ms.unwrap_or(0),
                rescan_ms: rescan_ms.unwrap_or(defaults.rescan_ms),
                max_inflight: max_inflight.unwrap_or(defaults.max_inflight),
                cache_answers: !no_cache,
                frame_cache_bytes: frame_cache_bytes.unwrap_or(defaults.frame_cache_bytes),
                summary_cache_bytes: summary_cache_bytes.unwrap_or(defaults.summary_cache_bytes),
                ..defaults
            };
            cmd_serve(Path::new(dir), daemon, opts, &obs_files, out)
        }
        ["serve-bench", addr] => cmd_serve_bench(
            addr,
            clients.unwrap_or(4),
            requests.unwrap_or(200),
            admin.as_deref(),
            json,
            limits,
            out,
        ),
        ["gen-fleet", dir] => cmd_gen_fleet(
            Path::new(dir),
            archives.unwrap_or(10),
            seed.unwrap_or(42),
            scale.unwrap_or(0.01),
            threads,
            out,
        ),
        ["report-check", path] => cmd_report_check(Path::new(path), out),
        ["sequitur", path] => cmd_sequitur(Path::new(path), out),
        ["selftest"] => cmd_selftest(
            seed.unwrap_or(42),
            cases.unwrap_or(100),
            max_events.unwrap_or(2_000) as usize,
            out_dir,
            threads,
            &obs_files,
            out,
        ),
        _ => Err(usage()),
    }
}

fn compile(path: &Path) -> Result<twpp_ir::Program, CliError> {
    let src = fs::read_to_string(path).map_err(|e| fail(format!("{}: {e}", path.display())))?;
    twpp_lang::compile(&src).map_err(|e| fail(format!("{}: {e}", path.display())))
}

fn cmd_run(path: &Path, input: &[i64], out: &mut Out<'_>) -> Result<(), CliError> {
    let program = compile(path)?;
    let (execution, wpp) = run_traced(&program, input, ExecLimits::default()).map_err(fail)?;
    for v in &execution.output {
        writeln!(out, "{v}")?;
    }
    writeln!(
        out,
        "-- {} block steps, {} trace events",
        execution.steps,
        wpp.event_count()
    )?;
    Ok(())
}

fn cmd_trace(
    path: &Path,
    input: &[i64],
    output: &Path,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    let program = compile(path)?;
    let (_, wpp) = run_traced(&program, input, ExecLimits::default()).map_err(fail)?;
    let file = fs::File::create(output).map_err(fail)?;
    let mut writer = std::io::BufWriter::new(file);
    wpp.write_to(&mut writer).map_err(fail)?;
    writeln!(
        out,
        "wrote {} ({} events, {} bytes)",
        output.display(),
        wpp.event_count(),
        wpp.byte_len()
    )?;
    writeln!(out, "function ids:")?;
    for (id, func) in program.funcs() {
        writeln!(out, "  {:>4}  {}", id.as_u32(), func.name())?;
    }
    Ok(())
}

fn read_wpp(path: &Path) -> Result<RawWpp, CliError> {
    let file = fs::File::open(path).map_err(|e| fail(format!("{}: {e}", path.display())))?;
    RawWpp::read_from(std::io::BufReader::new(file)).map_err(fail)
}

#[allow(clippy::too_many_arguments)]
fn cmd_compact(
    path: &Path,
    output: &Path,
    program_path: Option<&Path>,
    threads: Option<usize>,
    show_stats: bool,
    limits: twpp::Limits,
    degrade: bool,
    durability: twpp::Durability,
    codec: twpp::Codec,
    obs_files: &ObsFiles,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    let wpp = read_wpp(path)?;
    let obs = obs_files.observer();
    let resolved = twpp::resolve_threads(threads);
    let options = GovOptions {
        threads,
        budget: limits.start(),
        fail_fast: !degrade,
        faults: twpp::FaultPlan::from_env(),
        obs: obs.clone(),
    };
    let (compacted, mut stats) = match twpp::compact_governed(&wpp, &options) {
        Ok(v) => v,
        Err(twpp::PipelineError::Budget(reason)) => {
            // The budget stopped the pipeline: nothing partial is
            // written, but the report still records what was spent.
            let mut report = RunReport::new("compact", RunOutcome::Stopped);
            report.stop_reason = Some(reason.as_str().to_owned());
            report.threads = resolved as u64;
            report.budget = budget_section(&options.budget);
            obs_files.emit(&obs, report, out)?;
            return Err(fail(format!(
                "{}: compaction stopped ({reason}); no archive written",
                path.display()
            )));
        }
        Err(other) => return Err(fail(other)),
    };
    let names = match program_path {
        Some(src) => {
            let program = compile(src)?;
            program
                .funcs()
                .map(|(id, f)| (id, f.name().to_owned()))
                .collect()
        }
        None => std::collections::HashMap::new(),
    };
    let encode_started = std::time::Instant::now();
    let archive = TwppArchive::from_compacted_codec(
        &compacted,
        &names,
        resolved,
        &stats.degraded.failed,
        &obs,
        codec,
    );
    stats.timings.archive_encode_nanos = encode_started.elapsed().as_nanos() as u64;
    archive.save_with(output, durability).map_err(fail)?;
    writeln!(out, "wrote {} ({} bytes)", output.display(), archive.byte_len())?;
    writeln!(out, "original WPP          : {:>10} bytes", stats.raw.total())?;
    writeln!(
        out,
        "after dedup           : {:>10} bytes (x{:.2})",
        stats.after_dedup_bytes,
        stats.dedup_factor()
    )?;
    writeln!(
        out,
        "after DBB dictionaries: {:>10} bytes (x{:.2})",
        stats.after_dict_bytes,
        stats.dict_factor()
    )?;
    writeln!(
        out,
        "compacted TWPP traces : {:>10} bytes (x{:.2})",
        stats.ctwpp_trace_bytes,
        stats.twpp_factor()
    )?;
    writeln!(
        out,
        "total (DCG+traces+dic): {:>10} bytes -> overall x{:.1}",
        stats.total_compacted_bytes(),
        stats.overall_factor()
    )?;
    if show_stats {
        write_stage_stats(&stats, out)?;
    }
    let degraded_run = !stats.degraded.is_empty();
    let mut report = RunReport::new(
        "compact",
        if degraded_run {
            RunOutcome::Degraded
        } else {
            RunOutcome::Complete
        },
    );
    report.threads = resolved as u64;
    report.pipeline = Some(stats.to_section());
    report.budget = budget_section(&options.budget);
    obs_files.emit(&obs, report, out)?;
    if degraded_run {
        write!(out, "{}", stats.degraded)?;
        return Err(CliError::Degraded(format!(
            "degraded: {} function(s) failed during compaction and were \
             recorded in the archive footer; the remaining functions are \
             intact (see `twpp fsck {}`)",
            stats.degraded.len(),
            output.display()
        )));
    }
    Ok(())
}

/// The `--stats` tail of `twpp compact`: per-stage wall time plus the
/// worker utilisation of the parallel per-function stage.
fn write_stage_stats(stats: &PipelineStats, out: &mut Out<'_>) -> Result<(), CliError> {
    let ms = |nanos: u64| nanos as f64 / 1e6;
    let t = &stats.timings;
    writeln!(out, "stage timings:")?;
    writeln!(out, "  partition        : {:>9.3} ms", ms(t.partition_nanos))?;
    writeln!(out, "  dedup            : {:>9.3} ms", ms(t.dedup_nanos))?;
    writeln!(
        out,
        "  per-function     : {:>9.3} ms",
        ms(t.function_stage_nanos)
    )?;
    writeln!(
        out,
        "  DCG compression  : {:>9.3} ms",
        ms(t.dcg_compress_nanos)
    )?;
    writeln!(
        out,
        "  archive encode   : {:>9.3} ms",
        ms(t.archive_encode_nanos)
    )?;
    writeln!(out, "  total            : {:>9.3} ms", ms(t.total_nanos()))?;
    let w = &stats.workers;
    writeln!(
        out,
        "workers: {} thread{} over {} function{}",
        w.threads,
        if w.threads == 1 { "" } else { "s" },
        w.total_items(),
        if w.total_items() == 1 { "" } else { "s" },
    )?;
    for (id, items) in w.items_per_worker.iter().enumerate() {
        writeln!(out, "  worker {id:>3}: {items:>6} items")?;
    }
    Ok(())
}

/// The `ingest`-specific knobs, bundled so `cmd_ingest` stays below the
/// argument-count lint.
struct IngestFlags {
    seal_bytes: Option<u64>,
    seal_ms: Option<u64>,
    chunk_events: usize,
    durability: twpp::Durability,
    codec: twpp::Codec,
    threads: Option<usize>,
    limits: twpp::Limits,
    degrade: bool,
    retry: twpp::Retry,
}

/// `twpp ingest <dir> --from <in.wpp|->`: the crash-safe incremental
/// path. The input stream is fed in `--chunk-events` batches to a
/// resumable [`twpp::ingest::Compactor`]; if `<dir>` already holds
/// state from a killed run, ingestion resumes exactly where it stopped
/// and skips the prefix of the input that is already durable.
fn cmd_ingest(
    dir: &Path,
    from: &str,
    flags: IngestFlags,
    obs_files: &ObsFiles,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    let obs = obs_files.observer();
    let faults = twpp::FaultPlan::from_env();
    let budget = flags.limits.start();
    let opts = twpp::IngestOptions {
        seal_bytes: flags.seal_bytes.unwrap_or(1 << 20),
        seal_ms: flags.seal_ms,
        durability: flags.durability,
        threads: flags.threads,
        budget: budget.clone(),
        fail_fast: !flags.degrade,
        faults: faults.clone(),
        obs: obs.clone(),
        codec: flags.codec,
        retry: flags.retry,
    };
    let ingest_err = |e: twpp::IngestError| fail(format!("{}: {e}", dir.display()));
    let (mut compactor, resumed) = twpp::Compactor::open(dir, opts).map_err(ingest_err)?;
    let skip = compactor.accepted_events();
    if let Some(report) = &resumed {
        writeln!(
            out,
            "resumed {}: {} segment(s), {} sealed + {} replayed event(s){}{}",
            dir.display(),
            report.segments,
            report.sealed_events,
            report.wal_events,
            if report.wal_torn {
                ", torn WAL tail dropped"
            } else {
                ""
            },
            if report.orphans_removed > 0 {
                ", crash debris removed"
            } else {
                ""
            },
        )?;
    }
    if from == "-" {
        // Streaming: decode stdin incrementally, distinguishing a clean
        // footer/EOF (exit 0) from a mid-stream read error or malformed
        // stream (exit 4, after sealing what was durably acknowledged).
        stream_stdin_ingest(&mut compactor, &faults, flags.chunk_events, skip, dir, out)?;
    } else {
        let wpp = read_wpp(Path::new(from))?;
        let events = wpp.events();
        if skip > events.len() as u64 {
            return Err(fail(format!(
                "{}: directory already holds {skip} events but the input has \
                 only {}; refusing to resume against a different stream",
                dir.display(),
                events.len()
            )));
        }
        for piece in events[skip as usize..].chunks(flags.chunk_events) {
            compactor.feed(piece).map_err(ingest_err)?;
        }
    }
    let report = compactor.finish().map_err(ingest_err)?;
    writeln!(
        out,
        "wrote {} ({} events, {} segment(s), durability {})",
        report.path.display(),
        report.events,
        report.segments,
        flags.durability.as_str()
    )?;
    writeln!(out, "durability points: {}", faults.durability_points())?;
    let degraded_run = !report.stats.degraded.is_empty();
    let mut run = RunReport::new(
        "ingest",
        if degraded_run {
            RunOutcome::Degraded
        } else {
            RunOutcome::Complete
        },
    );
    run.threads = twpp::resolve_threads(flags.threads) as u64;
    run.pipeline = Some(report.stats.to_section());
    run.budget = budget_section(&budget);
    obs_files.emit(&obs, run, out)?;
    if degraded_run {
        return Err(CliError::Degraded(format!(
            "degraded: {} function(s) failed during the merge compaction \
             (see `twpp fsck {}`)",
            report.stats.degraded.len(),
            report.path.display()
        )));
    }
    Ok(())
}

/// The streaming stdin path of `twpp ingest --from -`.
///
/// Events are decoded incrementally with [`twpp_tracer::raw::WppStream`]
/// and fed as they arrive, so durability tracks the live stream instead
/// of waiting for EOF. A clean end (verified footer, or legacy EOF)
/// returns `Ok`; a mid-stream read failure or malformed stream is *not*
/// a clean end — the durably acknowledged prefix is sealed into a
/// segment and the command exits 4, leaving the directory resumable.
/// `TWPP_INJECT_READ_FAULT_AT=N` injects the read failure after N input
/// bytes for the crash harness.
fn stream_stdin_ingest(
    compactor: &mut twpp::ingest::Compactor,
    faults: &twpp::FaultPlan,
    chunk_events: usize,
    skip: u64,
    dir: &Path,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    use std::io::Read;

    /// Feeds `pending` through the resume-skip window and clears it.
    fn drain_pending(
        compactor: &mut twpp::ingest::Compactor,
        pending: &mut Vec<twpp_tracer::WppEvent>,
        fed: &mut u64,
        skip: u64,
        chunk_events: usize,
    ) -> Result<(), twpp::IngestError> {
        for piece in pending.chunks(chunk_events) {
            let offset = *fed;
            *fed += piece.len() as u64;
            let already = skip.saturating_sub(offset).min(piece.len() as u64) as usize;
            compactor.feed(&piece[already..])?;
        }
        pending.clear();
        Ok(())
    }

    let ingest_err = |e: twpp::IngestError| fail(format!("{}: {e}", dir.display()));
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let mut parser = twpp_tracer::raw::WppStream::new();
    let mut pending: Vec<twpp_tracer::WppEvent> = Vec::new();
    let mut fed = 0u64;
    let mut consumed = 0u64;
    let mut chunk = vec![0u8; 64 * 1024];
    let mut stream_failure: Option<String> = loop {
        let take = match faults.read_fault_at {
            Some(at) if consumed >= at => {
                break Some("injected mid-stream read fault (TWPP_INJECT_READ_FAULT_AT)".into());
            }
            Some(at) => ((at - consumed) as usize).clamp(1, chunk.len()),
            None => chunk.len(),
        };
        match input.read(&mut chunk[..take]) {
            Ok(0) => break None,
            Ok(n) => {
                consumed += n as u64;
                if let Err(e) = parser.push(&chunk[..n], &mut pending) {
                    break Some(format!("malformed stream after {consumed} byte(s): {e}"));
                }
                if pending.len() >= chunk_events {
                    drain_pending(compactor, &mut pending, &mut fed, skip, chunk_events)
                        .map_err(ingest_err)?;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => break Some(format!("read failed after {consumed} byte(s): {e}")),
        }
    };
    if stream_failure.is_none() {
        // Resolve the held-back footer words: verified or legacy-absent
        // is a clean end; torn or mismatched is a stream failure.
        match parser.finish(&mut pending) {
            Ok(_verified) => {
                drain_pending(compactor, &mut pending, &mut fed, skip, chunk_events)
                    .map_err(ingest_err)?;
            }
            Err(e) => stream_failure = Some(format!("stream ended badly: {e}")),
        }
    }
    if let Some(why) = stream_failure {
        // Decoded-but-unfed events were never acknowledged and are
        // dropped; everything fed is durable. Seal it so the prefix
        // survives as a segment and a rerun resumes exactly after it.
        compactor.seal().map_err(ingest_err)?;
        writeln!(
            out,
            "stream failed; sealed {} durable event(s) in {}",
            compactor.accepted_events(),
            dir.display()
        )?;
        return Err(fail(format!("<stdin>: {why}")));
    }
    if fed < skip {
        return Err(fail(format!(
            "{}: directory already holds {skip} events but the stream \
             carried only {fed}; refusing to resume against a different \
             stream",
            dir.display()
        )));
    }
    Ok(())
}

/// The `DAEMON` flag group both daemons read.
struct DaemonFlags {
    listen: String,
    port_file: Option<PathBuf>,
    admin: Option<String>,
    admin_port_file: Option<PathBuf>,
    drain_after_ms: Option<u64>,
}

impl DaemonFlags {
    /// Binds `--listen` and `--admin`, writes each bound address to its
    /// port file, prints the admin line, and starts the watcher that
    /// cancels the returned token on SIGTERM/SIGINT or once
    /// `--drain-after-ms` has passed.
    fn bind(
        &self,
        out: &mut Out<'_>,
    ) -> Result<(ServeListener, Option<ServeListener>, twpp::CancelToken), CliError> {
        let bind = |spec: &str, port_file: &Option<PathBuf>| {
            let listener = ServeListener::bind(spec)
                .map_err(|e| fail(format!("{spec}: {e}")))?;
            let addr = listener.local_addr();
            if let Some(p) = port_file {
                // The port file is how test harnesses learn an ephemeral
                // port; write it only once the socket actually listens.
                fs::write(p, &addr).map_err(|e| fail(format!("{}: {e}", p.display())))?;
            }
            Ok::<_, CliError>((listener, addr))
        };
        let (listener, _) = bind(&self.listen, &self.port_file)?;
        let admin = match &self.admin {
            Some(spec) => {
                let (admin, admin_addr) = bind(spec, &self.admin_port_file)?;
                writeln!(out, "admin plane on {admin_addr} (/metrics /status /healthz)")?;
                Some(admin)
            }
            None => None,
        };
        let shutdown = twpp::CancelToken::new();
        let token = shutdown.clone();
        let deadline = self.drain_after_ms;
        let started = std::time::Instant::now();
        std::thread::spawn(move || loop {
            if shutdown_requested()
                || deadline.is_some_and(|ms| started.elapsed().as_millis() as u64 >= ms)
            {
                token.cancel();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        Ok((listener, admin, shutdown))
    }
}

/// Size at which `--log-out` rotates to its `.1` sibling.
const LOG_ROTATE_BYTES: u64 = 8 << 20;

/// Slots in the daemon's crash flight recorder.
const FLIGHTREC_CAPACITY: usize = 512;

/// Set by the binary's SIGTERM/SIGINT handler; a running `serve-ingest`
/// polls it and drains gracefully.
static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Requests a graceful drain of a running `serve-ingest`. Only stores an
/// atomic flag, so it is safe to call from a signal handler.
pub fn request_shutdown() {
    SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Whether [`request_shutdown`] has been called.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(std::sync::atomic::Ordering::SeqCst)
}

/// `twpp serve-ingest <dir>`: the fault-tolerant streaming ingestion
/// daemon (DESIGN.md §17). Runs until SIGTERM/SIGINT, a client `Drain`
/// frame, or `--drain-after-ms`; then seals and merges every source.
/// Exit 0 when every source drained clean, 3 when some source was
/// failed in isolation, 4 on daemon-level failure. `opts` carries the
/// flag-derived settings; the observer, fault plan, logger and flight
/// recorder are filled in here.
fn cmd_serve_ingest(
    dir: &Path,
    daemon: DaemonFlags,
    log_out: Option<PathBuf>,
    opts: twpp::ingest::ServeOptions,
    obs_files: &ObsFiles,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    // The telemetry plane needs real counters behind /metrics, so
    // --admin (like any --*-out artifact) switches the observer from
    // noop to collecting. Without it the daemon stays byte-identical
    // to an uninstrumented build.
    let telemetry = daemon.admin.is_some() || log_out.is_some();
    let obs = if telemetry { Obs::collecting() } else { obs_files.observer() };
    let faults = twpp::FaultPlan::from_env();
    let (listener, admin, shutdown) = daemon.bind(out)?;
    let addr = listener.local_addr();
    let log = match &log_out {
        Some(p) => twpp::Logger::to_file(p, LOG_ROTATE_BYTES, twpp::LogLevel::Info)
            .map_err(|e| fail(format!("{}: {e}", p.display())))?,
        None => twpp::Logger::noop(),
    };
    // The flight recorder rides along with either telemetry surface; on
    // an injected-fault abort (TWPP_INJECT_KILL_AT) the gov abort hook
    // dumps it so even a crash leaves a black box in the serve dir.
    let flightrec = if telemetry {
        let rec = std::sync::Arc::new(twpp::FlightRecorder::new(FLIGHTREC_CAPACITY));
        let hook_rec = std::sync::Arc::clone(&rec);
        let hook_dir = dir.to_path_buf();
        let hook_log = log.clone();
        twpp::gov::set_abort_hook(Box::new(move || {
            hook_log.error("daemon aborting", &[]);
            match hook_rec.dump_to_dir(&hook_dir) {
                Ok(p) => eprintln!("flight recorder dumped to {}", p.display()),
                Err(e) => eprintln!("flight recorder dump failed: {e}"),
            }
        }));
        Some(rec)
    } else {
        None
    };
    writeln!(out, "listening on {addr} (drain with SIGTERM)")?;
    let opts = twpp::ingest::ServeOptions {
        faults: faults.clone(),
        obs: obs.clone(),
        log,
        flightrec,
        ..opts
    };
    // While the daemon runs, --report holds a live heartbeat: the same
    // schema-v1 run report with outcome "running" and a fresh metrics
    // snapshot, rewritten every second. The final report replaces it
    // after the drain.
    let heartbeat_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let heartbeat = obs_files.report_out.as_ref().map(|p| {
        let path = p.clone();
        let obs = obs.clone();
        let stop = std::sync::Arc::clone(&heartbeat_stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let mut run = RunReport::new("serve-ingest", RunOutcome::Running);
                run.metrics = obs.snapshot();
                run.span_count = obs.span_count() as u64;
                let json = run.to_json();
                debug_assert!(
                    twpp::validate_report_json(&json).is_ok(),
                    "heartbeat report must satisfy its own schema"
                );
                fs::write(&path, json).ok();
                for _ in 0..100 {
                    if stop.load(std::sync::atomic::Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            }
        })
    });
    let served = twpp::ingest::serve_with_admin(dir, listener, admin, shutdown, opts);
    heartbeat_stop.store(true, std::sync::atomic::Ordering::SeqCst);
    if let Some(h) = heartbeat {
        h.join().ok();
    }
    let report = served.map_err(|e| fail(format!("{}: {e}", dir.display())))?;
    writeln!(
        out,
        "drained: {} source(s), {} connection(s), {} frame(s), {} busy, {} quarantined",
        report.sources.len(),
        report.connections,
        report.frames,
        report.busy_responses,
        report.quarantined
    )?;
    let mut failed = 0u64;
    for s in &report.sources {
        match (&s.failed, &s.merged) {
            (Some(why), _) => {
                failed += 1;
                writeln!(out, "  {}: FAILED ({why}); directory left resumable", s.name)?;
            }
            (None, Some(path)) => writeln!(
                out,
                "  {}: {} event(s), {} segment(s) -> {}",
                s.name,
                s.events,
                s.segments,
                path.display()
            )?,
            (None, None) => writeln!(out, "  {}: no events; nothing to merge", s.name)?,
        }
    }
    writeln!(out, "durability points: {}", faults.durability_points())?;
    let run = RunReport::new(
        "serve-ingest",
        if failed == 0 {
            RunOutcome::Complete
        } else {
            RunOutcome::Degraded
        },
    );
    obs_files.emit(&obs, run, out)?;
    if failed > 0 {
        return Err(CliError::Degraded(format!(
            "{failed} source(s) failed in isolation; their directories under {} \
             remain resumable",
            dir.display()
        )));
    }
    Ok(())
}

/// `twpp net-feed <addr>`: stream a WPP file (or stdin) to a running
/// `serve-ingest` daemon. Resumes from the server's durable position
/// learned in the HELLO handshake, so rerunning after a daemon restart
/// or a dropped connection never duplicates or loses events.
fn cmd_net_feed(
    addr: &str,
    source: &str,
    from: &str,
    drain: bool,
    chunk_events: usize,
    retry: twpp::Retry,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    let wpp = if from == "-" {
        let stdin = std::io::stdin();
        RawWpp::read_from(stdin.lock()).map_err(|e| fail(format!("<stdin>: {e}")))?
    } else {
        read_wpp(Path::new(from))?
    };
    let events = wpp.events();

    let net_err = |e: twpp::net::NetError| fail(format!("{addr}: {e}"));
    let stream = twpp::daemon::connect(addr).map_err(fail)?;
    let mut client = twpp::net::Client::hello(stream, source).map_err(net_err)?;
    let skip = (client.accepted() as usize).min(events.len());
    for batch in events[skip..].chunks(chunk_events) {
        client.send_events(batch, &retry).map_err(net_err)?;
    }
    let accepted = client.accepted();
    if drain {
        client.drain().map_err(net_err)?;
    }
    writeln!(
        out,
        "{addr}: source {source} at {accepted} durable event(s){}",
        if drain { ", drain requested" } else { "" }
    )?;
    Ok(())
}

/// Fetches `path` from a daemon's admin plane; anything but HTTP 200 is
/// a failure.
fn admin_get(addr: &str, path: &str) -> Result<String, CliError> {
    match twpp::net::http_get(addr, path) {
        Ok((200, body)) => Ok(body),
        Ok((code, _)) => Err(fail(format!("{addr}: {path} returned HTTP {code}"))),
        Err(e) => Err(fail(format!("{addr}: {e}"))),
    }
}

/// Pulls a required field out of a `/status` object.
fn status_field<'a>(
    obj: &'a std::collections::BTreeMap<String, twpp::obs::Json>,
    key: &str,
) -> Result<&'a twpp::obs::Json, CliError> {
    obj.get(key)
        .ok_or_else(|| fail(format!("/status missing field `{key}`")))
}

/// A required numeric `/status` field, truncated to u64.
fn status_u64(
    obj: &std::collections::BTreeMap<String, twpp::obs::Json>,
    key: &str,
) -> Result<u64, CliError> {
    status_field(obj, key)?
        .as_num()
        .map(|n| n as u64)
        .ok_or_else(|| fail(format!("/status field `{key}` is not a number")))
}

/// `twpp status <addr>`: fetch `/status` from a daemon's admin plane and
/// render it as a per-source table (DESIGN.md §18). `--json` prints the
/// raw body after validating it; `--watch N` refreshes every N seconds
/// until interrupted.
fn cmd_status(
    addr: &str,
    json: bool,
    watch: Option<u64>,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    loop {
        let body = admin_get(addr, "/status")?;
        let doc = twpp::obs::parse_json(&body)
            .map_err(|e| fail(format!("{addr}: invalid /status JSON: {e}")))?;
        render_status(addr, &doc, &body, json, out)?;
        match watch {
            Some(secs) => {
                writeln!(out)?;
                std::thread::sleep(std::time::Duration::from_secs(secs));
            }
            None => return Ok(()),
        }
    }
}

/// Validates one `/status` document against schema v1 and writes either
/// the raw JSON or the human table.
fn render_status(
    addr: &str,
    doc: &twpp::obs::Json,
    raw: &str,
    json: bool,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    let obj = doc
        .as_obj()
        .ok_or_else(|| fail("/status body is not a JSON object".to_string()))?;
    let version = status_u64(obj, "status_schema_version")?;
    if version != twpp::daemon::STATUS_SCHEMA_VERSION {
        return Err(fail(format!(
            "/status schema v{version} is not the supported v{}",
            twpp::daemon::STATUS_SCHEMA_VERSION
        )));
    }
    // Both daemons share the admin plane; the `command` field says which
    // schema the rest of the document follows.
    let command = status_field(obj, "command")?
        .as_str()
        .ok_or_else(|| fail("/status field `command` is not a string".to_string()))?;
    let serve = command == "serve";
    let roster_key = if serve { "archives" } else { "sources" };
    let roster = status_field(obj, roster_key)?
        .as_arr()
        .ok_or_else(|| fail(format!("/status field `{roster_key}` is not an array")))?;
    if json {
        writeln!(out, "{raw}")?;
        return Ok(());
    }
    let draining = status_field(obj, "draining")?.as_bool().unwrap_or(false);
    let uptime_ms = status_u64(obj, "uptime_ms")?;
    // The shared header, with each daemon's own counters in the middle.
    let counters = if serve {
        format!(
            "{} request(s), {} answer(s) ({} partial), {} error(s)",
            status_u64(obj, "requests_total")?,
            status_u64(obj, "answers_total")?,
            status_u64(obj, "partial_total")?,
            status_u64(obj, "errors_total")?,
        )
    } else {
        format!("{} frame(s)", status_u64(obj, "frames_total")?)
    };
    writeln!(
        out,
        "{command} on {addr}: up {:.1}s{}, {} connection(s), {counters}, {} busy, {} quarantined",
        uptime_ms as f64 / 1000.0,
        if draining { " (draining)" } else { "" },
        status_u64(obj, "connections_total")?,
        status_u64(obj, "busy_total")?,
        status_u64(obj, "quarantined_total")?,
    )?;
    if serve {
        return render_serve_status(obj, roster, out);
    }
    if roster.is_empty() {
        writeln!(out, "  no sources yet")?;
        return Ok(());
    }
    writeln!(
        out,
        "  {:<16} {:>10} {:>8} {:>5} {:>8} {:>12}  state",
        "source", "durable", "window", "segs", "ev/s", "last seal"
    )?;
    for s in roster {
        let s = s
            .as_obj()
            .ok_or_else(|| fail("/status source entry is not an object".to_string()))?;
        let name = status_field(s, "name")?
            .as_str()
            .ok_or_else(|| fail("/status source `name` is not a string".to_string()))?;
        // last_seal_ms is milliseconds since daemon start, like uptime_ms.
        let last_seal = status_u64(s, "last_seal_ms")?;
        let seal_col = if last_seal == 0 {
            "never".to_owned()
        } else {
            format!("{:.1}s ago", uptime_ms.saturating_sub(last_seal) as f64 / 1000.0)
        };
        let failed = status_field(s, "failed")?.as_bool().unwrap_or(false);
        let state = if failed {
            let why = status_field(s, "failure")?.as_str().unwrap_or("unknown");
            format!("FAILED: {why}")
        } else {
            "ok".to_owned()
        };
        writeln!(
            out,
            "  {:<16} {:>10} {:>8} {:>5} {:>8.1} {:>12}  {state}",
            name,
            status_u64(s, "durable_events")?,
            status_u64(s, "window_events")?,
            status_u64(s, "segments")?,
            status_field(s, "events_per_sec")?.as_num().unwrap_or(0.0),
            seal_col,
        )?;
    }
    Ok(())
}

/// The query fleet server's `/status` sections below the header: both
/// cache planes, the per-tenant roster and the open failures.
fn render_serve_status(
    obj: &std::collections::BTreeMap<String, twpp::obs::Json>,
    archives: &[twpp::obs::Json],
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    for key in ["frame_cache", "summary_cache"] {
        let cache = status_field(obj, key)?
            .as_obj()
            .ok_or_else(|| fail(format!("/status field `{key}` is not an object")))?;
        let hits = status_u64(cache, "hits")?;
        let misses = status_u64(cache, "misses")?;
        let rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64 * 100.0
        };
        writeln!(
            out,
            "  {key}: {} byte(s) in {} entr{}, {hits} hit(s) / {misses} miss(es) \
             ({rate:.1}% hit rate), {} eviction(s)",
            status_u64(cache, "resident_bytes")?,
            status_u64(cache, "entries")?,
            if status_u64(cache, "entries")? == 1 { "y" } else { "ies" },
            status_u64(cache, "evictions")?,
        )?;
    }
    if archives.is_empty() {
        writeln!(out, "  no archives in the fleet")?;
    } else {
        writeln!(
            out,
            "  {:<24} {:>9} {:>9} {:>12}  state",
            "archive", "functions", "decoded", "bytes"
        )?;
        for a in archives {
            let a = a
                .as_obj()
                .ok_or_else(|| fail("/status archive entry is not an object".to_string()))?;
            let name = status_field(a, "name")?
                .as_str()
                .ok_or_else(|| fail("/status archive `name` is not a string".to_string()))?;
            let state = if status_field(a, "degraded")?.as_bool().unwrap_or(false) {
                "degraded"
            } else {
                "ok"
            };
            writeln!(
                out,
                "  {:<24} {:>9} {:>9} {:>12}  {state}",
                name,
                status_u64(a, "functions")?,
                status_u64(a, "decoded_functions")?,
                status_u64(a, "file_bytes")?,
            )?;
        }
    }
    let failures = status_field(obj, "open_failures")?
        .as_arr()
        .ok_or_else(|| fail("/status field `open_failures` is not an array".to_string()))?;
    for f in failures {
        let f = f
            .as_obj()
            .ok_or_else(|| fail("/status failure entry is not an object".to_string()))?;
        writeln!(
            out,
            "  UNREADABLE {}: {}",
            status_field(f, "name")?.as_str().unwrap_or("?"),
            status_field(f, "error")?.as_str().unwrap_or("?"),
        )?;
    }
    Ok(())
}

/// `twpp metrics-check <file-or-addr>`: strict Prometheus text-format
/// validation — of a `--metrics-out` file if the target names one, else
/// of `/metrics` fetched live from a daemon's admin address.
fn cmd_metrics_check(target: &str, out: &mut Out<'_>) -> Result<(), CliError> {
    let (origin, text) = if Path::new(target).is_file() {
        let text =
            fs::read_to_string(target).map_err(|e| fail(format!("{target}: {e}")))?;
        (target.to_owned(), text)
    } else {
        (format!("{target} /metrics"), admin_get(target, "/metrics")?)
    };
    let families = twpp::parse_prometheus_text(&text)
        .map_err(|e| fail(format!("{origin}: invalid Prometheus exposition: {e}")))?;
    let samples: usize = families.iter().map(|f| f.samples.len()).sum();
    writeln!(
        out,
        "{origin}: valid Prometheus exposition ({} famil{}, {samples} sample(s))",
        families.len(),
        if families.len() == 1 { "y" } else { "ies" }
    )?;
    Ok(())
}

fn cmd_info(path: &Path, out: &mut Out<'_>) -> Result<(), CliError> {
    let bytes = fs::read(path).map_err(|e| fail(format!("{}: {e}", path.display())))?;
    if bytes.starts_with(b"TWPA") {
        let archive = TwppArchive::from_bytes(bytes).map_err(fail)?;
        writeln!(out, "TWPP archive, {} bytes", archive.byte_len())?;
        writeln!(out, "{} functions (most-called first):", archive.function_ids().len())?;
        writeln!(out, "{:>12} {:>10} {:>13}", "func", "calls", "unique paths")?;
        for func in archive.function_ids() {
            let record = archive.read_function(func).map_err(fail)?;
            let label = archive
                .function_name(func)
                .map(str::to_owned)
                .unwrap_or_else(|| func.as_u32().to_string());
            writeln!(
                out,
                "{:>12} {:>10} {:>13}",
                label,
                record.call_count,
                record.traces.len()
            )?;
        }
    } else {
        let wpp = RawWpp::read_from(&bytes[..]).map_err(fail)?;
        let sizes = wpp.size_breakdown();
        writeln!(out, "raw WPP, {} events ({} bytes)", wpp.event_count(), wpp.byte_len())?;
        writeln!(out, "  call structure: {} bytes", sizes.dcg_bytes)?;
        writeln!(out, "  block traces  : {} bytes", sizes.trace_bytes)?;
        let mut counts: Vec<_> = wpp.call_counts().into_iter().collect();
        counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        writeln!(out, "top functions by calls:")?;
        for (func, count) in counts.into_iter().take(10) {
            writeln!(out, "  {:>6}  {count}", func.as_u32())?;
        }
    }
    Ok(())
}

fn cmd_fsck(
    path: &Path,
    repair: bool,
    output: Option<&Path>,
    threads: Option<usize>,
    obs_files: &ObsFiles,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    if path.is_dir() {
        return cmd_fsck_dir(path, obs_files, out);
    }
    let bytes = fs::read(path).map_err(|e| fail(format!("{}: {e}", path.display())))?;
    let obs = obs_files.observer();
    let resolved = twpp::resolve_threads(threads);
    if bytes.starts_with(b"TWPA") {
        let (archive, report) = TwppArchive::recover_observed(&bytes, resolved, &obs)
            .map_err(|e| fail(format!("{}: {e}", path.display())))?;
        write!(out, "{report}")?;
        let outcome = if report.is_clean() {
            RunOutcome::Complete
        } else if report.is_degraded_only() {
            RunOutcome::Degraded
        } else {
            RunOutcome::Damaged
        };
        let mut run = RunReport::new("fsck", outcome);
        run.threads = resolved as u64;
        run.fsck = Some(report.to_section());
        obs_files.emit(&obs, run, out)?;
        if report.is_clean() {
            writeln!(out, "{}: clean", path.display())?;
            return Ok(());
        }
        if report.is_degraded_only() {
            let degraded = report.degraded_functions();
            for id in &degraded {
                writeln!(out, "degraded function {}: failed at compaction, no traces stored", id.as_u32())?;
            }
            return Err(CliError::Degraded(format!(
                "{}: archive is intact but degraded — {} function(s) failed \
                 during compaction and carry no traces; all other functions \
                 verify",
                path.display(),
                degraded.len()
            )));
        }
        if repair {
            let repaired = match output {
                Some(p) => p.to_path_buf(),
                None => path.with_extension("repaired.twpa"),
            };
            archive.save(&repaired).map_err(fail)?;
            writeln!(
                out,
                "wrote repaired archive {} ({} bytes, {} functions)",
                repaired.display(),
                archive.byte_len(),
                report.salvaged_functions()
            )?;
            return Ok(());
        }
        Err(fail(format!(
            "{}: archive is damaged ({} of {} functions salvageable); \
             rerun with --repair to write a clean copy",
            path.display(),
            report.salvaged_functions(),
            report.functions.len()
        )))
    } else {
        let salvage = RawWpp::read_salvage(&bytes[..])
            .map_err(|e| fail(format!("{}: {e}", path.display())))?;
        writeln!(
            out,
            "raw WPP: {} events, footer {}",
            salvage.wpp.event_count(),
            if salvage.footer_verified {
                "verified"
            } else {
                "missing or damaged"
            }
        )?;
        let outcome = if salvage.is_clean() {
            RunOutcome::Complete
        } else {
            RunOutcome::Damaged
        };
        let mut run = RunReport::new("fsck", outcome);
        run.threads = resolved as u64;
        obs_files.emit(&obs, run, out)?;
        if salvage.is_clean() {
            writeln!(out, "{}: clean", path.display())?;
            return Ok(());
        }
        writeln!(
            out,
            "dropped {} undecodable words ({} trailing bytes)",
            salvage.words_dropped, salvage.bytes_dropped
        )?;
        if repair {
            let repaired = match output {
                Some(p) => p.to_path_buf(),
                None => path.with_extension("repaired.wpp"),
            };
            let file = fs::File::create(&repaired).map_err(fail)?;
            let mut writer = std::io::BufWriter::new(file);
            salvage.wpp.write_to(&mut writer).map_err(fail)?;
            writer.into_inner().map_err(fail)?.sync_all().map_err(fail)?;
            writeln!(
                out,
                "wrote repaired trace {} ({} events)",
                repaired.display(),
                salvage.wpp.event_count()
            )?;
            return Ok(());
        }
        Err(fail(format!(
            "{}: trace is damaged; rerun with --repair to write the salvaged prefix",
            path.display()
        )))
    }
}

/// `twpp fsck` over an ingest directory: chain-validate the manifests,
/// verify every sealed segment (strict read of a raw window, salvage of
/// an archive segment), replay the WAL. Exit 0 when the
/// directory is pristine, 3 when it is resumable but carries crash
/// debris (torn WAL tail, orphan files), 4 when it cannot be resumed.
fn cmd_fsck_dir(dir: &Path, obs_files: &ObsFiles, out: &mut Out<'_>) -> Result<(), CliError> {
    let obs = obs_files.observer();
    let check = twpp::ingest::fsck_dir(dir, &obs)
        .map_err(|e| fail(format!("{}: {e}", dir.display())))?;
    writeln!(
        out,
        "ingest directory: {} segment(s), {} sealed + {} WAL event(s)",
        check.segments.len(),
        check.sealed_events,
        check.wal_events
    )?;
    for seg in &check.segments {
        let verdict = match &seg.verdict {
            SegmentVerdict::Archive(report) => format!(
                "salvage: {}{}",
                report.strategy,
                if report.is_clean() { "" } else { " (DAMAGED)" }
            ),
            SegmentVerdict::Window(w) => match &w.damage {
                None => format!("raw window: clean ({} record(s))", w.records),
                Some(d) => format!(
                    "raw window: {} clean record(s) (DAMAGED at byte {}: {})",
                    w.records, d.at, d.reason
                ),
            },
        };
        writeln!(
            out,
            "  segment {:>3}: {:>8} events at offset {:>8}, depth {:>2} -> {:>2}, {verdict}",
            seg.meta.seq,
            seg.meta.events,
            seg.meta.accepted_before,
            seg.meta.depth_start,
            seg.meta.end_stack.len(),
        )?;
    }
    if check.wal_skipped_records > 0 {
        writeln!(
            out,
            "  WAL: {} record(s) already sealed (resume will skip them)",
            check.wal_skipped_records
        )?;
    }
    if check.wal_torn {
        writeln!(
            out,
            "  WAL: torn tail, {} byte(s) (unacknowledged; resume drops it)",
            check.wal_torn_bytes
        )?;
    }
    if let Some(e) = &check.wal_error {
        writeln!(out, "  WAL: {e}")?;
    }
    for orphan in &check.orphans {
        writeln!(out, "  orphan: {} (crash debris; resume clears it)", orphan.display())?;
    }
    if let Some(msg) = &check.chain_error {
        writeln!(out, "  chain: {msg}")?;
    }
    let outcome = if check.is_clean() {
        RunOutcome::Complete
    } else if check.is_resumable() {
        RunOutcome::Degraded
    } else {
        RunOutcome::Damaged
    };
    let run = RunReport::new("fsck", outcome);
    obs_files.emit(&obs, run, out)?;
    if check.is_clean() {
        writeln!(out, "{}: clean", dir.display())?;
        return Ok(());
    }
    if check.is_resumable() {
        return Err(CliError::Degraded(format!(
            "{}: directory is resumable but carries crash debris; rerunning \
             `twpp ingest` will recover it",
            dir.display()
        )));
    }
    Err(fail(format!(
        "{}: ingest directory is not resumable{}",
        dir.display(),
        check
            .chain_error
            .as_deref()
            .map(|m| format!(" ({m})"))
            .unwrap_or_default()
    )))
}

fn cmd_query(
    path: &Path,
    func: &str,
    limits: twpp::Limits,
    obs_files: &ObsFiles,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    let budget = limits.start();
    let obs = obs_files.observer();
    let (func, record) = {
        let _s = obs.span("query_read");
        let la = open_lazy(path, &obs)?;
        let func = resolve_func_lazy(&la, func)?;
        (func, read_function_lazy(&la, func)?)
    };
    // The rendering is shared with the fleet server (twpp-server), so
    // `twpp query --remote` output is byte-identical by construction.
    let answer = {
        let _s = obs.span("query_expand");
        twpp_server::query_answer(func, &record, &budget).map_err(answer_err)?
    };
    if let twpp::net::AnswerData::Query { rendered, .. } = &answer.data {
        obs.counter(
            "twpp_cli_query_traces_printed_total",
            "Expanded path traces printed by `twpp query`",
        )
        .add(u64::from(*rendered));
    }
    write!(out, "{}", answer.text)?;
    emit_answer_report("query", &answer, &budget, obs_files, &obs, out)?;
    match twpp_server::degraded_message(&answer) {
        Some(msg) => Err(CliError::Degraded(msg)),
        None => Ok(()),
    }
}

/// The shared report/exit tail of every answer-producing command: emit
/// the run report, then map a partial answer to the degraded exit.
fn emit_answer_report(
    command: &'static str,
    answer: &twpp::net::Answer,
    budget: &twpp::Budget,
    obs_files: &ObsFiles,
    obs: &Obs,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    let mut report = RunReport::new(
        command,
        if answer.complete {
            RunOutcome::Complete
        } else {
            RunOutcome::Degraded
        },
    );
    report.stop_reason = twpp_server::stop_reason(answer.stop_code).map(|r| r.as_str().to_owned());
    report.budget = budget_section(budget);
    obs_files.emit(obs, report, out)
}

/// Parses a numeric CLI operand used on the serve wire.
fn parse_wire_u32(raw: &str, what: &str) -> Result<u32, CliError> {
    raw.parse::<u32>()
        .map_err(|e| CliError::Usage(format!("bad {what} `{raw}`: {e}")))
}

/// Opens `path` lazily with its own default-sized frame cache, counting
/// first decodes into `obs`.
fn open_lazy(path: &Path, obs: &Obs) -> Result<twpp::lazy::LazyArchive, CliError> {
    let cache = std::sync::Arc::new(twpp::FrameCache::new(twpp::DEFAULT_FRAME_CACHE_BYTES));
    twpp::lazy::LazyArchive::open_with_cache(path, cache, obs.clone())
        .map_err(|e| fail(format!("{}: {e}", path.display())))
}

/// Resolves a function operand (numeric id or embedded name) against a
/// lazily-opened archive.
fn resolve_func_lazy(la: &twpp::lazy::LazyArchive, func: &str) -> Result<FuncId, CliError> {
    match func.parse::<u32>() {
        Ok(id) => Ok(FuncId::from_u32(id)),
        Err(_) => la
            .function_by_name(func)
            .ok_or_else(|| fail(format!("no function named `{func}` in archive"))),
    }
}

/// Reads one function through a lazy open, mapping degraded entries to
/// the degraded exit.
fn read_function_lazy(
    la: &twpp::lazy::LazyArchive,
    func: FuncId,
) -> Result<std::sync::Arc<twpp::FunctionRecord>, CliError> {
    match la.read_function(func) {
        Ok(record) => Ok(record),
        Err(ArchiveError::DegradedFunction(id)) => Err(CliError::Degraded(format!(
            "function {} failed during compaction and carries no traces \
             in this archive (degraded entry)",
            id.as_u32()
        ))),
        Err(e) => Err(fail(e)),
    }
}

/// The [`twpp::net::BudgetSpec`] equivalent of the CLI's governance
/// flags, for requests sent to a remote server.
fn budget_spec(limits: twpp::Limits) -> twpp::net::BudgetSpec {
    twpp::net::BudgetSpec {
        deadline_ms: limits.deadline_ms.unwrap_or(0),
        max_steps: limits.max_steps.unwrap_or(0),
    }
}

/// Maps a client-side failure to the CLI error contract: a refusal with
/// `ERR_DEGRADED` carries the same message and exit code as the local
/// degraded path; everything else is a hard failure.
fn client_err(e: twpp_server::ClientError) -> CliError {
    match e {
        twpp_server::ClientError::Refused { code, message }
            if code == twpp::net::ERR_DEGRADED =>
        {
            CliError::Degraded(message)
        }
        other => fail(other),
    }
}

/// The remote tail shared by the `--remote` commands: print the
/// server-rendered text verbatim, then reproduce the degraded exit.
fn finish_remote_answer(answer: &twpp::net::Answer, out: &mut Out<'_>) -> Result<(), CliError> {
    write!(out, "{}", answer.text)?;
    match twpp_server::degraded_message(answer) {
        Some(msg) => Err(CliError::Degraded(msg)),
        None => Ok(()),
    }
}

fn cmd_query_remote(
    addr: &str,
    archive: &str,
    func: &str,
    limits: twpp::Limits,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    let func = func
        .parse::<u32>()
        .map_err(|_| CliError::Usage("remote queries need a numeric function id".into()))?;
    let mut client = twpp_server::Client::connect(addr).map_err(client_err)?;
    let answer = client
        .query(
            twpp::net::QueryReq { archive: archive.to_owned(), func },
            budget_spec(limits),
        )
        .map_err(client_err)?;
    finish_remote_answer(&answer, out)
}

#[allow(clippy::too_many_arguments)]
fn cmd_slice(
    path: &Path,
    func: &str,
    trace: u32,
    criterion: u32,
    limits: twpp::Limits,
    obs_files: &ObsFiles,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    let budget = limits.start();
    let obs = obs_files.observer();
    let la = open_lazy(path, &obs)?;
    let func = resolve_func_lazy(&la, func)?;
    let record = read_function_lazy(&la, func)?;
    let answer = {
        let _s = obs.span("slice_solve");
        twpp_server::slice_answer(func, &record, trace, criterion, &budget)
            .map_err(answer_err)?
    };
    write!(out, "{}", answer.text)?;
    emit_answer_report("slice", &answer, &budget, obs_files, &obs, out)?;
    match twpp_server::degraded_message(&answer) {
        Some(msg) => Err(CliError::Degraded(msg)),
        None => Ok(()),
    }
}

fn cmd_slice_remote(
    addr: &str,
    archive: &str,
    func: &str,
    trace: u32,
    criterion: u32,
    limits: twpp::Limits,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    let func = func
        .parse::<u32>()
        .map_err(|_| CliError::Usage("remote queries need a numeric function id".into()))?;
    let mut client = twpp_server::Client::connect(addr).map_err(client_err)?;
    let answer = client
        .slice(
            twpp::net::SliceReq { archive: archive.to_owned(), func, trace, criterion },
            budget_spec(limits),
        )
        .map_err(client_err)?;
    finish_remote_answer(&answer, out)
}

#[allow(clippy::too_many_arguments)]
fn cmd_currency(
    path: &Path,
    func: &str,
    trace: u32,
    def: u32,
    use_: u32,
    redefs: &[u32],
    limits: twpp::Limits,
    obs_files: &ObsFiles,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    let budget = limits.start();
    let obs = obs_files.observer();
    let la = open_lazy(path, &obs)?;
    let func = resolve_func_lazy(&la, func)?;
    let record = read_function_lazy(&la, func)?;
    let answer = {
        let _s = obs.span("currency_solve");
        twpp_server::currency_answer(func, &record, trace, def, use_, redefs, &budget)
            .map_err(answer_err)?
    };
    write!(out, "{}", answer.text)?;
    emit_answer_report("currency", &answer, &budget, obs_files, &obs, out)?;
    match twpp_server::degraded_message(&answer) {
        Some(msg) => Err(CliError::Degraded(msg)),
        None => Ok(()),
    }
}

#[allow(clippy::too_many_arguments)]
fn cmd_currency_remote(
    addr: &str,
    archive: &str,
    func: &str,
    trace: u32,
    def: u32,
    use_: u32,
    redefs: &[u32],
    limits: twpp::Limits,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    let func = func
        .parse::<u32>()
        .map_err(|_| CliError::Usage("remote queries need a numeric function id".into()))?;
    let mut client = twpp_server::Client::connect(addr).map_err(client_err)?;
    let answer = client
        .currency(
            twpp::net::CurrencyReq {
                archive: archive.to_owned(),
                func,
                trace,
                def_block: def,
                use_block: use_,
                redefs: redefs.to_vec(),
            },
            budget_spec(limits),
        )
        .map_err(client_err)?;
    finish_remote_answer(&answer, out)
}

/// Maps a local [`twpp_server::AnswerError`] to the CLI error contract.
fn answer_err(e: twpp_server::AnswerError) -> CliError {
    match e {
        twpp_server::AnswerError::Degraded(m) => CliError::Degraded(m),
        twpp_server::AnswerError::BadRequest(m) => CliError::Usage(m),
        other => fail(other),
    }
}

/// `twpp serve <dir>`: the multi-tenant query daemon over a fleet of
/// archives (DESIGN.md §19). Runs until SIGTERM/SIGINT or
/// `--drain-after-ms`, answering Query/Slice/Currency/ListArchives/Stat
/// over the framed protocol.
fn cmd_serve(
    dir: &Path,
    daemon: DaemonFlags,
    opts: twpp_server::ServeOptions,
    obs_files: &ObsFiles,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    // Like serve-ingest, --admin needs live counters behind /metrics, so
    // it switches the observer from noop to collecting.
    let obs = if daemon.admin.is_some() { Obs::collecting() } else { obs_files.observer() };
    let (listener, admin, shutdown) = daemon.bind(out)?;
    let addr = listener.local_addr();
    writeln!(out, "serving archives under {} on {addr}", dir.display())?;
    let opts = twpp_server::ServeOptions { obs: obs.clone(), ..opts };
    let report = twpp_server::serve(dir, listener, admin, opts, &shutdown)
        .map_err(|e| fail(format!("{}: {e}", dir.display())))?;
    writeln!(
        out,
        "drained: {} archive(s), {} connection(s), {} request(s), \
         {} answer(s) ({} partial), {} error(s), {} busy, {} quarantined",
        report.archives,
        report.connections,
        report.requests,
        report.answers,
        report.partial,
        report.errors,
        report.busy,
        report.quarantined
    )?;
    let run = RunReport::new("serve", RunOutcome::Complete);
    obs_files.emit(&obs, run, out)?;
    Ok(())
}

/// One client's share of the serve-bench hammer: per-request latencies
/// in nanoseconds, plus how many answers came back partial.
struct BenchSlice {
    latencies: Vec<u64>,
    partial: u64,
}

/// `twpp serve-bench <addr>`: hammer a running `twpp serve` daemon with
/// `--clients` concurrent connections issuing `--requests` queries each,
/// round-robin over every (archive, function) pair the fleet exposes,
/// and report client-side latency percentiles.
fn cmd_serve_bench(
    addr: &str,
    clients: usize,
    requests: usize,
    admin: Option<&str>,
    json: bool,
    limits: twpp::Limits,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    // Discover the target set once: every archive, probing low function
    // ids with a 1-step budget (cheap even on huge functions).
    let mut probe = twpp_server::Client::connect(addr).map_err(client_err)?;
    let archives = probe.list_archives().map_err(client_err)?;
    if archives.is_empty() {
        return Err(fail("server has no archives to bench against"));
    }
    let mut targets: Vec<(String, u32)> = Vec::new();
    for stat in &archives {
        for func in 0..16u32 {
            let req = twpp::net::QueryReq { archive: stat.name.clone(), func };
            let spec = twpp::net::BudgetSpec { deadline_ms: 0, max_steps: 1 };
            if probe.query(req, spec).is_ok() {
                targets.push((stat.name.clone(), func));
            }
        }
    }
    if targets.is_empty() {
        return Err(fail("no queryable functions found in the served fleet"));
    }
    drop(probe);
    let spec = budget_spec(limits);
    let slices: Vec<BenchSlice> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..clients {
            let targets = &targets;
            handles.push(scope.spawn(move || -> Result<BenchSlice, CliError> {
                let mut client = twpp_server::Client::connect(addr).map_err(client_err)?;
                let mut latencies = Vec::with_capacity(requests);
                let mut partial = 0u64;
                for r in 0..requests {
                    let (archive, func) = &targets[(c + r * clients) % targets.len()];
                    let req =
                        twpp::net::QueryReq { archive: archive.clone(), func: *func };
                    let started = std::time::Instant::now();
                    let answer = client.query(req, spec).map_err(client_err)?;
                    latencies.push(started.elapsed().as_nanos() as u64);
                    if !answer.complete {
                        partial += 1;
                    }
                }
                Ok(BenchSlice { latencies, partial })
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err(fail("bench client panicked"))))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut latencies: Vec<u64> = slices.iter().flat_map(|s| s.latencies.clone()).collect();
    let partial: u64 = slices.iter().map(|s| s.partial).sum();
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx]
    };
    let total = latencies.len() as u64;
    let (p50, p99) = (pct(0.50), pct(0.99));
    // Cache hit rates come from the admin plane when present.
    let hit_rates = admin.and_then(scrape_cache_hit_rates);
    if json {
        let mut w = twpp::obs::JsonWriter::new();
        w.begin_object();
        w.key("requests");
        w.uint(total);
        w.key("partial");
        w.uint(partial);
        w.key("p50_nanos");
        w.uint(p50);
        w.key("p99_nanos");
        w.uint(p99);
        match hit_rates {
            Some((frame, summary)) => {
                w.key("frame_cache_hit_rate");
                w.float(frame);
                w.key("summary_cache_hit_rate");
                w.float(summary);
            }
            None => {
                w.key("frame_cache_hit_rate");
                w.null();
                w.key("summary_cache_hit_rate");
                w.null();
            }
        }
        w.end_object();
        writeln!(out, "{}", w.finish())?;
        return Ok(());
    }
    writeln!(
        out,
        "{total} request(s) across {clients} client(s): p50 {:.3} ms, p99 {:.3} ms, {partial} partial",
        p50 as f64 / 1e6,
        p99 as f64 / 1e6
    )?;
    if let Some((frame, summary)) = hit_rates {
        writeln!(
            out,
            "cache hit rates: frame {:.1}%, summary {:.1}%",
            frame * 100.0,
            summary * 100.0
        )?;
    }
    Ok(())
}

/// Reads `twpp_serve_*_cache_*_total` counters off a serve daemon's
/// `/metrics` endpoint and folds them into hit rates.
fn scrape_cache_hit_rates(admin: &str) -> Option<(f64, f64)> {
    let body = admin_get(admin, "/metrics").ok()?;
    let counter = |name: &str| -> f64 {
        body.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let rate = |hits: f64, misses: f64| if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 };
    Some((
        rate(
            counter("twpp_serve_frame_cache_hits_total"),
            counter("twpp_serve_frame_cache_misses_total"),
        ),
        rate(
            counter("twpp_serve_summary_cache_hits_total"),
            counter("twpp_serve_summary_cache_misses_total"),
        ),
    ))
}

/// `twpp gen-fleet <dir>`: write `--archives` seeded workload archives
/// under a directory, cycling the five SPECint95 profiles. The result is
/// a ready-made fleet root for `twpp serve` tests and benches.
fn cmd_gen_fleet(
    dir: &Path,
    archives: usize,
    seed: u64,
    scale: f64,
    threads: Option<usize>,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    fs::create_dir_all(dir).map_err(|e| fail(format!("{}: {e}", dir.display())))?;
    let obs = Obs::noop();
    let resolved = twpp::resolve_threads(threads);
    let profiles = twpp_workloads::Profile::all();
    for i in 0..archives {
        let profile = profiles[i % profiles.len()];
        let mut spec = profile.spec().scaled(scale);
        spec.seed = seed.wrapping_add(i as u64);
        let workload = twpp_workloads::generate(&spec);
        let compacted = twpp::compact(&workload.wpp).map_err(fail)?;
        let names: std::collections::HashMap<FuncId, String> = workload
            .program
            .funcs()
            .map(|(id, f)| (id, f.name().to_owned()))
            .collect();
        let archive = TwppArchive::from_compacted_codec(
            &compacted,
            &names,
            resolved,
            &[],
            &obs,
            twpp::Codec::default(),
        );
        // The stem doubles as the archive's served name, so it must be a
        // valid_source_name: profile names only contain [a-z0-9.].
        let path = dir.join(format!("{}-s{i}.twpa", workload.name));
        archive
            .save_with(&path, twpp::Durability::Flush)
            .map_err(|e| fail(format!("{}: {e}", path.display())))?;
        writeln!(
            out,
            "wrote {} ({} functions, {} bytes)",
            path.display(),
            archive.function_ids().len(),
            archive.byte_len()
        )?;
    }
    writeln!(out, "fleet of {archives} archive(s) under {}", dir.display())?;
    Ok(())
}

/// Validates a `--report` file against the run-report JSON schema.
fn cmd_report_check(path: &Path, out: &mut Out<'_>) -> Result<(), CliError> {
    let text = fs::read_to_string(path).map_err(|e| fail(format!("{}: {e}", path.display())))?;
    twpp::validate_report_json(&text)
        .map_err(|e| fail(format!("{}: invalid run report: {e}", path.display())))?;
    writeln!(
        out,
        "{}: valid run report (schema v{})",
        path.display(),
        twpp::REPORT_SCHEMA_VERSION
    )?;
    Ok(())
}

/// The conformance battery: differential checks against naive reference
/// oracles, metamorphic relations, byte-identity across thread counts,
/// and auto-shrunk reproducers for anything that diverges.
fn cmd_selftest(
    seed: u64,
    cases: usize,
    max_events: usize,
    out_dir: Option<PathBuf>,
    threads: Option<usize>,
    obs_files: &ObsFiles,
    out: &mut Out<'_>,
) -> Result<(), CliError> {
    let out_dir = out_dir.unwrap_or_else(|| std::env::temp_dir().join("twpp-selftest"));
    // The byte-identity checks compare the pipeline against itself at
    // every listed thread count; `--threads N` pins the largest one.
    let thread_list: Vec<usize> = match threads {
        Some(1) => vec![1],
        Some(n) => vec![1, n],
        None => vec![1, 2, 4, 8],
    };
    let cfg = twpp_conformance::SelftestConfig {
        seed,
        cases,
        max_events,
        threads: thread_list,
        out_dir: Some(out_dir.clone()),
        shrink_budget: twpp_conformance::shrink::ShrinkBudget::default(),
    };
    let obs = obs_files.observer();
    let report = {
        let _s = obs.span("selftest");
        twpp_conformance::run_selftest(&cfg)
    };
    write!(out, "{}", report.summary())?;
    obs.counter("twpp_selftest_cases_total", "Selftest cases executed")
        .add(report.cases as u64);
    obs.counter(
        "twpp_selftest_check_runs_total",
        "Individual conformance-check executions",
    )
    .add(report.total_runs() as u64);
    obs.counter(
        "twpp_selftest_divergences_total",
        "Divergences found by the selftest battery",
    )
    .add(report.divergences.len() as u64);
    // The detailed battery report lives next to any reproducers; the
    // --report flag still emits the schema-v1 run report like every
    // other command.
    if fs::create_dir_all(&out_dir).is_ok() {
        let json_path = out_dir.join("selftest-report.json");
        if fs::write(&json_path, report.to_json()).is_ok() {
            writeln!(out, "wrote battery report {}", json_path.display())?;
        }
    }
    let run = RunReport::new(
        "selftest",
        if report.ok() {
            RunOutcome::Complete
        } else {
            RunOutcome::Damaged
        },
    );
    obs_files.emit(&obs, run, out)?;
    if !report.ok() {
        return Err(CliError::Failed(format!(
            "selftest: {} divergence(s) across {} cases; shrunk reproducers in {}",
            report.divergences.len(),
            report.cases,
            out_dir.display()
        )));
    }
    writeln!(
        out,
        "selftest OK: seed {seed}, {} cases, {} check executions, 0 divergences",
        report.cases,
        report.total_runs()
    )?;
    Ok(())
}

fn cmd_sequitur(path: &Path, out: &mut Out<'_>) -> Result<(), CliError> {
    let wpp = read_wpp(path)?;
    let grammar = twpp_sequitur::compress_wpp(&wpp);
    let rules = grammar.to_rules();
    let encoded = twpp_sequitur::encode(&rules);
    writeln!(out, "input : {:>10} bytes ({} events)", wpp.byte_len(), wpp.event_count())?;
    writeln!(
        out,
        "output: {:>10} bytes ({} rules, {} symbols) -> x{:.2}",
        encoded.len(),
        rules.len(),
        grammar.symbol_count(),
        wpp.byte_len() as f64 / encoded.len() as f64
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        let mut out = Vec::new();
        run_command(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf-8 output"))
    }

    fn temp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "twpp-cli-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn help_and_usage() {
        assert!(run(&["--help"]).unwrap().contains("usage:"));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["bogus"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["trace", "x.twl"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["compact", "x.wpp", "-o", "y", "--trace-out"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["compact", "x.wpp", "-o", "y", "--report"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn every_verb_rejects_a_flag_it_does_not_read() {
        let corpus = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/corpus/small-v3.twpa"
        );
        // (arguments, the flag the verb does not read)
        let cases: &[(&[&str], &str)] = &[
            (
                &["fsck", corpus, "--seal-bytes", "9", "--clients", "3"],
                "--seal-bytes",
            ),
            (&["info", corpus, "--remote", "x"], "--remote"),
            (&["query", corpus, "1", "--threads", "3"], "--threads"),
            (&["run", "p.twl", "--stats"], "--stats"),
            (
                &["trace", "p.twl", "-o", "p.wpp", "--threads", "2"],
                "--threads",
            ),
            (
                &["compact", "p.wpp", "-o", "p.twpa", "--seal-bytes", "9"],
                "--seal-bytes",
            ),
            (
                &["ingest", "d", "--from", "p.wpp", "--program", "p.twl"],
                "--program",
            ),
            (
                &["serve-ingest", "d", "--remote", "tcp:127.0.0.1:1"],
                "--remote",
            ),
            (
                &["net-feed", "tcp:127.0.0.1:1", "--source", "s", "--stats"],
                "--stats",
            ),
            (&["status", "tcp:127.0.0.1:1", "--drain"], "--drain"),
            (&["metrics-check", "m.prom", "--json"], "--json"),
            (
                &["slice", corpus, "1", "0", "1", "--codec", "legacy"],
                "--codec",
            ),
            (
                &["currency", corpus, "1", "0", "1", "2", "--repair"],
                "--repair",
            ),
            (&["serve", "d", "--seal-bytes", "9"], "--seal-bytes"),
            (
                &["serve-bench", "tcp:127.0.0.1:1", "--threads", "2"],
                "--threads",
            ),
            (&["gen-fleet", "d", "--program", "p.twl"], "--program"),
            (&["report-check", "r.json", "-o", "x"], "-o"),
            (&["sequitur", "p.wpp", "--report", "r.json"], "--report"),
            (&["selftest", "--deadline-ms", "5"], "--deadline-ms"),
        ];
        for (args, flag) in cases {
            match run(args) {
                Err(CliError::Usage(msg)) => assert!(
                    msg.contains(&format!("`{}` does not take `{flag}`", args[0])),
                    "{args:?}: {msg}"
                ),
                other => panic!("{args:?} must be a usage error naming {flag}: {other:?}"),
            }
        }
        let tested: std::collections::BTreeSet<&str> = cases.iter().map(|(a, _)| a[0]).collect();
        let verbs: std::collections::BTreeSet<&str> = VERB_FLAGS.iter().map(|(v, _)| *v).collect();
        assert_eq!(tested, verbs, "one case per verb");
        // A flag the verb does read passes the check.
        assert!(matches!(
            run(&["query", "/nonexistent.twpa", "1", "--max-events", "2"]),
            Err(CliError::Failed(_))
        ));
    }

    #[test]
    fn every_verb_rejects_a_flag_its_mode_does_not_read() {
        let corpus = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/corpus/small-v3.twpa"
        );
        let dir = temp_dir().join("mode-flags");
        fs::create_dir_all(&dir).unwrap();
        let repaired = dir.join("x.twpa");
        let repaired = repaired.to_str().unwrap();
        let remote = "tcp:127.0.0.1:1";
        let report = dir.join("r.json");
        let report = report.to_str().unwrap();
        let dir_arg = dir.to_str().unwrap();
        // (arguments, the flag the mode does not read, the mode)
        let cases: &[(&[&str], &str, &str)] = &[
            (
                &["fsck", dir_arg, "--repair", "-o", repaired, "--threads", "2"],
                "--repair",
                "on an ingest directory",
            ),
            (
                &["query", corpus, "1", "--remote", remote, "--report", report],
                "--report",
                "with `--remote`",
            ),
            (
                &["slice", corpus, "1", "0", "1", "--remote", remote, "--trace-out", report],
                "--trace-out",
                "with `--remote`",
            ),
            (
                &["currency", corpus, "1", "0", "1", "2", "--remote", remote, "--metrics-out", report],
                "--metrics-out",
                "with `--remote`",
            ),
        ];
        for (args, flag, mode) in cases {
            match run(args) {
                Err(CliError::Usage(msg)) => assert!(
                    msg.contains(&format!("`{}` does not take `{flag}` {mode}", args[0])),
                    "{args:?}: {msg}"
                ),
                other => panic!("{args:?} must be a usage error naming {flag}: {other:?}"),
            }
        }
        assert!(!Path::new(repaired).exists());
        assert!(!Path::new(report).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn help_sections_list_exactly_the_verbs_that_read_them() {
        for (section, flag) in [
            ("threads", "--threads"),
            ("codec", "--codec"),
            ("durability", "--durability"),
            ("retry", "--retry-seed"),
            ("governance", "--deadline-ms"),
            ("observability", "--trace-out"),
        ] {
            let prefix = format!("{section} (");
            let line = USAGE
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("help has no {section} section"));
            let listed: Vec<&str> = line[prefix.len()..]
                .trim_end_matches("):")
                .split('/')
                .collect();
            let readers: Vec<&str> = VERB_FLAGS
                .iter()
                .filter(|(_, groups)| groups.iter().any(|g| g.contains(&flag)))
                .map(|(v, _)| *v)
                .collect();
            let mut sorted = listed.clone();
            sorted.sort_unstable();
            let mut expected = readers.clone();
            expected.sort_unstable();
            assert_eq!(sorted, expected, "help section `{section}`");
        }
    }

    #[test]
    fn full_workflow_run_trace_compact_info_query() {
        let dir = temp_dir();
        let src_path = dir.join("prog.twl");
        fs::write(
            &src_path,
            "fn f(x) { if (x % 2 == 0) { print(x); } else { print(0 - x); } }
             fn main() { let i = 0; while (i < 6) { f(i); i = i + 1; } }",
        )
        .unwrap();
        let src = src_path.to_str().unwrap();

        // run
        let output = run(&["run", src]).unwrap();
        assert!(output.starts_with("0\n-1\n2\n-3\n4\n-5\n"), "{output}");

        // trace
        let wpp_path = dir.join("prog.wpp");
        let output = run(&["trace", src, "-o", wpp_path.to_str().unwrap()]).unwrap();
        assert!(output.contains("wrote"));
        assert!(output.contains("main"));

        // info on the raw trace
        let output = run(&["info", wpp_path.to_str().unwrap()]).unwrap();
        assert!(output.contains("raw WPP"));

        // compact
        let arc_path = dir.join("prog.twpa");
        let output = run(&[
            "compact",
            wpp_path.to_str().unwrap(),
            "-o",
            arc_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(output.contains("overall"));

        // info on the archive
        let output = run(&["info", arc_path.to_str().unwrap()]).unwrap();
        assert!(output.contains("TWPP archive"));

        // query function 0 (f): 6 calls, 2 unique paths.
        let output = run(&["query", arc_path.to_str().unwrap(), "0"]).unwrap();
        assert!(output.contains("6 calls"), "{output}");
        assert!(output.contains("2 unique"), "{output}");

        // compact with embedded names, then query by name.
        let named_path = dir.join("named.twpa");
        run(&[
            "compact",
            wpp_path.to_str().unwrap(),
            "-o",
            named_path.to_str().unwrap(),
            "--program",
            src,
        ])
        .unwrap();
        let output = run(&["query", named_path.to_str().unwrap(), "f"]).unwrap();
        assert!(output.contains("6 calls"), "{output}");
        let output = run(&["info", named_path.to_str().unwrap()]).unwrap();
        assert!(output.contains("main"), "{output}");
        assert!(matches!(
            run(&["query", named_path.to_str().unwrap(), "ghost"]),
            Err(CliError::Failed(_))
        ));

        // sequitur baseline
        let output = run(&["sequitur", wpp_path.to_str().unwrap()]).unwrap();
        assert!(output.contains("rules"));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_detects_damage_and_repair_revalidates() {
        let dir = temp_dir();
        let src_path = dir.join("prog.twl");
        fs::write(
            &src_path,
            "fn f(x) { print(x); }
             fn main() { let i = 0; while (i < 4) { f(i); i = i + 1; } }",
        )
        .unwrap();
        let src = src_path.to_str().unwrap();
        let wpp_path = dir.join("prog.wpp");
        run(&["trace", src, "-o", wpp_path.to_str().unwrap()]).unwrap();
        let arc_path = dir.join("prog.twpa");
        run(&["compact", wpp_path.to_str().unwrap(), "-o", arc_path.to_str().unwrap()]).unwrap();

        // Clean files verify.
        let output = run(&["fsck", arc_path.to_str().unwrap()]).unwrap();
        assert!(output.contains("clean"), "{output}");
        let output = run(&["fsck", wpp_path.to_str().unwrap()]).unwrap();
        assert!(output.contains("clean"), "{output}");

        // Flip one byte in the archive body: fsck must fail (exit non-zero
        // via CliError::Failed)…
        let mut bytes = fs::read(&arc_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let bad_path = dir.join("bad.twpa");
        fs::write(&bad_path, &bytes).unwrap();
        assert!(matches!(
            run(&["fsck", bad_path.to_str().unwrap()]),
            Err(CliError::Failed(_))
        ));

        // …and --repair must emit an archive that re-validates.
        let fixed_path = dir.join("fixed.twpa");
        let output = run(&[
            "fsck",
            bad_path.to_str().unwrap(),
            "--repair",
            "-o",
            fixed_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(output.contains("wrote repaired archive"), "{output}");
        let output = run(&["fsck", fixed_path.to_str().unwrap()]).unwrap();
        assert!(output.contains("clean"), "{output}");

        // Truncated raw trace: fsck fails, --repair salvages a clean prefix.
        let wpp_bytes = fs::read(&wpp_path).unwrap();
        let cut = dir.join("cut.wpp");
        fs::write(&cut, &wpp_bytes[..wpp_bytes.len() - 7]).unwrap();
        assert!(matches!(
            run(&["fsck", cut.to_str().unwrap()]),
            Err(CliError::Failed(_))
        ));
        let fixed_wpp = dir.join("fixed.wpp");
        run(&[
            "fsck",
            cut.to_str().unwrap(),
            "--repair",
            "-o",
            fixed_wpp.to_str().unwrap(),
        ])
        .unwrap();
        let output = run(&["fsck", fixed_wpp.to_str().unwrap()]).unwrap();
        assert!(output.contains("clean"), "{output}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_threads_and_stats_flags() {
        let dir = temp_dir();
        let src_path = dir.join("prog.twl");
        fs::write(
            &src_path,
            "fn f(x) { if (x % 2 == 0) { print(x); } else { print(0 - x); } }
             fn g(x) { print(x * 2); }
             fn main() { let i = 0; while (i < 8) { f(i); g(i); i = i + 1; } }",
        )
        .unwrap();
        let src = src_path.to_str().unwrap();
        let wpp_path = dir.join("prog.wpp");
        run(&["trace", src, "-o", wpp_path.to_str().unwrap()]).unwrap();

        // `--stats` adds the timing/worker tail, including the archive
        // encode stage.
        let arc1 = dir.join("one.twpa");
        let output = run(&[
            "compact",
            wpp_path.to_str().unwrap(),
            "-o",
            arc1.to_str().unwrap(),
            "--threads",
            "1",
            "--stats",
        ])
        .unwrap();
        assert!(output.contains("stage timings:"), "{output}");
        assert!(output.contains("archive encode"), "{output}");
        assert!(output.contains("workers: 1 thread"), "{output}");

        // Different thread counts write byte-identical archives.
        let arc4 = dir.join("four.twpa");
        run(&[
            "compact",
            wpp_path.to_str().unwrap(),
            "-o",
            arc4.to_str().unwrap(),
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(fs::read(&arc1).unwrap(), fs::read(&arc4).unwrap());

        // fsck accepts --threads too.
        let output = run(&["fsck", arc4.to_str().unwrap(), "--threads", "4"]).unwrap();
        assert!(output.contains("clean"), "{output}");

        // Bad values are usage errors.
        assert!(matches!(
            run(&["compact", wpp_path.to_str().unwrap(), "-o", "x", "--threads", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["compact", wpp_path.to_str().unwrap(), "-o", "x", "--threads"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["compact", wpp_path.to_str().unwrap(), "-o", "x", "--threads", "lots"]),
            Err(CliError::Usage(_))
        ));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn governance_flags_and_exit_codes() {
        // Exit-code mapping.
        assert_eq!(exit_code(&CliError::Usage("u".into())), 2);
        assert_eq!(exit_code(&CliError::Degraded("d".into())), 3);
        assert_eq!(exit_code(&CliError::Failed("f".into())), 4);

        // Bad governance values are usage errors.
        assert!(matches!(
            run(&["query", "x.twpa", "0", "--deadline-ms"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["query", "x.twpa", "0", "--deadline-ms", "soon"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["query", "x.twpa", "0", "--max-events", "-3"]),
            Err(CliError::Usage(_))
        ));

        let dir = temp_dir();
        let src_path = dir.join("prog.twl");
        fs::write(
            &src_path,
            "fn f(x) { if (x % 2 == 0) { print(x); } else { print(0 - x); } }
             fn main() { let i = 0; while (i < 6) { f(i); i = i + 1; } }",
        )
        .unwrap();
        let src = src_path.to_str().unwrap();
        let wpp_path = dir.join("prog.wpp");
        run(&["trace", src, "-o", wpp_path.to_str().unwrap()]).unwrap();

        // A generous budget completes normally.
        let arc_path = dir.join("prog.twpa");
        run(&[
            "compact",
            wpp_path.to_str().unwrap(),
            "-o",
            arc_path.to_str().unwrap(),
            "--deadline-ms",
            "60000",
        ])
        .unwrap();

        // An exhausted step budget stops compaction with a hard failure and
        // writes nothing.
        let never = dir.join("never.twpa");
        let err = run(&[
            "compact",
            wpp_path.to_str().unwrap(),
            "-o",
            never.to_str().unwrap(),
            "--max-events",
            "1",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Failed(_)), "{err}");
        assert!(err.to_string().contains("no archive written"), "{err}");
        assert!(!never.exists());

        // A query with a tiny step budget truncates and reports Degraded.
        let err = run(&[
            "query",
            arc_path.to_str().unwrap(),
            "0",
            "--max-events",
            "1",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Degraded(_)), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");

        // An unconstrained query still completes.
        let output = run(&["query", arc_path.to_str().unwrap(), "0"]).unwrap();
        assert!(output.contains("path 0"), "{output}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_panic_degrades_compact_and_fsck_reports_it() {
        // `--degrade` + TWPP_INJECT_PANIC: the faulted function is skipped,
        // the archive is written, compact exits Degraded (3), query on the
        // failed function exits Degraded, and fsck reports intact-but-
        // degraded. Env vars are process-global, so resolve the fault plan
        // once here rather than racing other tests: this test drives
        // cmd_compact directly with a programmatic GovOptions.
        let dir = temp_dir();
        let src_path = dir.join("prog.twl");
        fs::write(
            &src_path,
            "fn f(x) { print(x); }
             fn g(x) { print(x + 1); }
             fn main() { let i = 0; while (i < 4) { f(i); g(i); i = i + 1; } }",
        )
        .unwrap();
        let src = src_path.to_str().unwrap();
        let wpp_path = dir.join("prog.wpp");
        run(&["trace", src, "-o", wpp_path.to_str().unwrap()]).unwrap();

        let wpp = read_wpp(&wpp_path).unwrap();
        let options = GovOptions {
            threads: Some(1),
            budget: twpp::Budget::unlimited(),
            fail_fast: false,
            faults: twpp::FaultPlan::panic_on(FuncId::from_u32(0)),
            obs: Obs::noop(),
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (compacted, stats) = twpp::compact_governed(&wpp, &options).unwrap();
        std::panic::set_hook(prev);
        assert_eq!(stats.degraded.len(), 1);
        let names = compile(&src_path)
            .unwrap()
            .funcs()
            .map(|(id, f)| (id, f.name().to_owned()))
            .collect();
        let archive = TwppArchive::from_compacted_codec(
            &compacted,
            &names,
            1,
            &stats.degraded.failed,
            &Obs::noop(),
            twpp::Codec::Legacy,
        );
        let arc_path = dir.join("degraded.twpa");
        archive.save(&arc_path).unwrap();

        // Querying or slicing the failed function, by id or by name,
        // reports degradation, not a crash or an unknown name.
        let arc = arc_path.to_str().unwrap();
        for args in [
            &["query", arc, "0"][..],
            &["query", arc, "f"],
            &["slice", arc, "f", "0", "1"],
        ] {
            let err = run(args).unwrap_err();
            assert!(matches!(err, CliError::Degraded(_)), "{args:?}: {err}");
        }

        // The surviving function still answers.
        let output = run(&["query", arc_path.to_str().unwrap(), "1"]).unwrap();
        assert!(output.contains("4 calls"), "{output}");

        // fsck: intact but degraded -> Degraded, and lists the function.
        let mut out = Vec::new();
        let args = vec!["fsck".to_owned(), arc_path.to_str().unwrap().to_owned()];
        let err = run_command(&args, &mut out).unwrap_err();
        assert!(matches!(err, CliError::Degraded(_)), "{err}");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("degraded function 0"), "{text}");

        // fsck --report on the degraded archive records the degraded
        // functions in the fsck section with outcome "degraded".
        let report_path = dir.join("fsck-report.json");
        let mut out = Vec::new();
        let args = vec![
            "fsck".to_owned(),
            arc_path.to_str().unwrap().to_owned(),
            "--report".to_owned(),
            report_path.to_str().unwrap().to_owned(),
        ];
        run_command(&args, &mut out).unwrap_err();
        let text = fs::read_to_string(&report_path).unwrap();
        twpp::validate_report_json(&text).unwrap();
        assert!(text.contains("\"outcome\":\"degraded\""), "{text}");
        assert!(text.contains("\"functions_degraded\":1"), "{text}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn selftest_runs_green_and_is_deterministic() {
        let dir = temp_dir();
        let out_dir = dir.join("repros");
        let args = [
            "selftest",
            "--seed",
            "7",
            "--cases",
            "3",
            "--max-events",
            "300",
            "--threads",
            "2",
            "--out-dir",
            out_dir.to_str().unwrap(),
        ];
        let a = run(&args).unwrap();
        assert!(a.contains("selftest OK"), "{a}");
        assert!(a.contains("0 divergences"), "{a}");
        // The battery report is written and identical across runs.
        let json_path = out_dir.join("selftest-report.json");
        let first = fs::read_to_string(&json_path).unwrap();
        let b = run(&args).unwrap();
        assert_eq!(a, b, "selftest output must be deterministic");
        assert_eq!(first, fs::read_to_string(&json_path).unwrap());
        // No reproducers on a green run.
        assert!(
            !fs::read_dir(&out_dir)
                .unwrap()
                .filter_map(Result::ok)
                .any(|e| e.file_name().to_string_lossy().starts_with("repro-")),
            "green selftest must not write reproducers"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn selftest_flag_validation_and_report() {
        assert!(matches!(
            run(&["selftest", "--seed"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["selftest", "--seed", "many"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["selftest", "--cases", "0"]),
            Err(CliError::Usage(_))
        ));

        // --report emits a schema-valid run report with command selftest.
        let dir = temp_dir();
        let report_path = dir.join("selftest.json");
        let out_dir = dir.join("repros");
        let output = run(&[
            "selftest",
            "--seed",
            "3",
            "--cases",
            "2",
            "--max-events",
            "200",
            "--threads",
            "1",
            "--out-dir",
            out_dir.to_str().unwrap(),
            "--report",
            report_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(output.contains("wrote run report"), "{output}");
        let text = fs::read_to_string(&report_path).unwrap();
        twpp::validate_report_json(&text).unwrap();
        assert!(text.contains("\"command\":\"selftest\""), "{text}");
        assert!(text.contains("\"outcome\":\"complete\""), "{text}");
        assert!(text.contains("twpp_selftest_cases_total"), "{text}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_with_input_values() {
        let dir = temp_dir();
        let src_path = dir.join("echo.twl");
        fs::write(&src_path, "fn main() { print(input() + input()); }").unwrap();
        let output = run(&["run", src_path.to_str().unwrap(), "--input", "20,22"]).unwrap();
        assert!(output.starts_with("42\n"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(matches!(
            run(&["run", "/nonexistent/file.twl"]),
            Err(CliError::Failed(_))
        ));
        let dir = temp_dir();
        let bad = dir.join("bad.twl");
        fs::write(&bad, "fn main() { let = ; }").unwrap();
        assert!(matches!(
            run(&["run", bad.to_str().unwrap()]),
            Err(CliError::Failed(_))
        ));
        assert!(matches!(
            run(&["query", bad.to_str().unwrap(), "zero"]),
            Err(CliError::Failed(_))
        ));
        fs::remove_dir_all(&dir).ok();
    }

    /// A sink whose every write fails, standing in for a closed pipe.
    struct BrokenPipe;

    impl Write for BrokenPipe {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "broken pipe",
            ))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn print_failures_surface_as_cli_errors() {
        let args = vec!["--help".to_owned()];
        let err = run_command(&args, &mut BrokenPipe).unwrap_err();
        assert!(matches!(err, CliError::Failed(_)), "{err:?}");
        assert!(err.to_string().contains("output write failed"), "{err}");
    }

    #[test]
    fn status_command_usage_and_unreachable_daemon() {
        assert!(matches!(run(&["status"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["status", "tcp:127.0.0.1:9", "--watch", "0"]),
            Err(CliError::Usage(_))
        ));
        // Nothing listens on the discard port: a clean Failed, not a hang.
        assert!(matches!(
            run(&["status", "tcp:127.0.0.1:9"]),
            Err(CliError::Failed(_))
        ));
        assert!(matches!(
            run(&["metrics-check", "tcp:127.0.0.1:9"]),
            Err(CliError::Failed(_))
        ));
    }

    #[test]
    fn admin_plane_status_and_metrics_check_through_the_cli() {
        let dir = temp_dir();
        let serve_dir = dir.join("serve");
        let port_file = dir.join("port");
        let admin_port_file = dir.join("admin-port");
        let log_path = dir.join("daemon.log");
        let args: Vec<String> = [
            "serve-ingest",
            serve_dir.to_str().unwrap(),
            "--listen",
            "tcp:127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
            "--admin",
            "tcp:127.0.0.1:0",
            "--admin-port-file",
            admin_port_file.to_str().unwrap(),
            "--log-out",
            log_path.to_str().unwrap(),
            "--durability",
            "none",
            "--drain-after-ms",
            "2500",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let daemon = std::thread::spawn(move || {
            let mut out = Vec::new();
            run_command(&args, &mut out).map(|()| String::from_utf8(out).expect("utf-8"))
        });
        let admin_addr = {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            loop {
                if let Ok(addr) = fs::read_to_string(&admin_port_file) {
                    if !addr.is_empty() {
                        break addr;
                    }
                }
                assert!(std::time::Instant::now() < deadline, "admin port file never appeared");
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        };

        // The human table and the raw JSON both validate schema v1.
        let output = run(&["status", &admin_addr]).unwrap();
        assert!(output.contains("serve-ingest on"), "{output}");
        assert!(output.contains("no sources yet"), "{output}");
        let output = run(&["status", &admin_addr, "--json"]).unwrap();
        let doc = twpp::obs::parse_json(&output).unwrap();
        let obj = doc.as_obj().unwrap();
        assert_eq!(
            obj.get("status_schema_version").and_then(|v| v.as_num()),
            Some(twpp::daemon::STATUS_SCHEMA_VERSION as f64)
        );
        assert_eq!(
            obj.get("command").and_then(|v| v.as_str()),
            Some("serve-ingest")
        );

        // Live /metrics passes the strict checker end to end.
        let output = run(&["metrics-check", &admin_addr]).unwrap();
        assert!(output.contains("valid Prometheus exposition"), "{output}");

        let daemon_out = daemon.join().expect("daemon thread").unwrap();
        assert!(daemon_out.contains("admin plane on"), "{daemon_out}");
        assert!(daemon_out.contains("drained:"), "{daemon_out}");

        // The structured log is JSONL: every line parses, and the
        // daemon lifecycle events are present.
        let log_text = fs::read_to_string(&log_path).unwrap();
        assert!(!log_text.is_empty());
        for line in log_text.lines() {
            let rec = twpp::obs::parse_json(line).unwrap();
            let rec = rec.as_obj().unwrap();
            assert!(rec.contains_key("ts_ms"), "{line}");
            assert!(rec.contains_key("level"), "{line}");
            assert!(rec.contains_key("msg"), "{line}");
        }
        assert!(log_text.contains("\"msg\":\"daemon started\""), "{log_text}");
        assert!(log_text.contains("\"msg\":\"daemon drained\""), "{log_text}");

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_flags_write_trace_metrics_and_report() {
        let dir = temp_dir();
        let src_path = dir.join("prog.twl");
        fs::write(
            &src_path,
            "fn f(x) { if (x % 2 == 0) { print(x); } else { print(0 - x); } }
             fn main() { let i = 0; while (i < 6) { f(i); i = i + 1; } }",
        )
        .unwrap();
        let src = src_path.to_str().unwrap();
        let wpp_path = dir.join("prog.wpp");
        run(&["trace", src, "-o", wpp_path.to_str().unwrap()]).unwrap();

        // Plain compact, then an instrumented one: the archives must be
        // byte-identical (observation never perturbs output).
        let plain = dir.join("plain.twpa");
        run(&["compact", wpp_path.to_str().unwrap(), "-o", plain.to_str().unwrap()]).unwrap();
        let observed = dir.join("observed.twpa");
        let trace_out = dir.join("run.json");
        let metrics_out = dir.join("run.prom");
        let report_out = dir.join("report.json");
        let output = run(&[
            "compact",
            wpp_path.to_str().unwrap(),
            "-o",
            observed.to_str().unwrap(),
            "--trace-out",
            trace_out.to_str().unwrap(),
            "--metrics-out",
            metrics_out.to_str().unwrap(),
            "--report",
            report_out.to_str().unwrap(),
        ])
        .unwrap();
        assert!(output.contains("wrote trace events"), "{output}");
        assert!(output.contains("wrote metrics"), "{output}");
        assert!(output.contains("wrote run report"), "{output}");
        assert_eq!(fs::read(&plain).unwrap(), fs::read(&observed).unwrap());

        // The trace file is loadable Chrome trace-event JSON with the
        // pipeline spans.
        let trace_text = fs::read_to_string(&trace_out).unwrap();
        let doc = twpp::obs::parse_json(&trace_text).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert!(!events.is_empty());
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"compact"), "{names:?}");
        assert!(names.contains(&"archive_encode"), "{names:?}");

        // The metrics file is Prometheus text exposition.
        let prom = fs::read_to_string(&metrics_out).unwrap();
        assert!(
            prom.contains("# TYPE twpp_core_events_processed_total counter"),
            "{prom}"
        );
        assert!(prom.contains("twpp_core_frames_encoded_total"), "{prom}");

        // metrics-check accepts the emitted exposition…
        let output = run(&["metrics-check", metrics_out.to_str().unwrap()]).unwrap();
        assert!(output.contains("valid Prometheus exposition"), "{output}");
        // …and rejects a malformed one (TYPE before HELP).
        let bad_prom = dir.join("bad.prom");
        fs::write(&bad_prom, "# TYPE x counter\n# HELP x late\nx 1\n").unwrap();
        assert!(matches!(
            run(&["metrics-check", bad_prom.to_str().unwrap()]),
            Err(CliError::Failed(_))
        ));

        // The report validates against the schema and carries the
        // pipeline section with the archive_encode timing filled in.
        let report_text = fs::read_to_string(&report_out).unwrap();
        twpp::validate_report_json(&report_text).unwrap();
        assert!(report_text.contains("\"command\":\"compact\""), "{report_text}");
        assert!(report_text.contains("\"archive_encode\":"), "{report_text}");

        // report-check accepts it…
        let output = run(&["report-check", report_out.to_str().unwrap()]).unwrap();
        assert!(output.contains("valid run report"), "{output}");

        // …and rejects garbage and schema violations.
        let junk = dir.join("junk.json");
        fs::write(&junk, "{\"schema_version\":999}").unwrap();
        assert!(matches!(
            run(&["report-check", junk.to_str().unwrap()]),
            Err(CliError::Failed(_))
        ));
        let notjson = dir.join("notjson.json");
        fs::write(&notjson, "not json at all").unwrap();
        assert!(matches!(
            run(&["report-check", notjson.to_str().unwrap()]),
            Err(CliError::Failed(_))
        ));

        // fsck + query also emit schema-valid reports.
        let fsck_report = dir.join("fsck.json");
        run(&[
            "fsck",
            observed.to_str().unwrap(),
            "--report",
            fsck_report.to_str().unwrap(),
        ])
        .unwrap();
        let text = fs::read_to_string(&fsck_report).unwrap();
        twpp::validate_report_json(&text).unwrap();
        assert!(text.contains("\"command\":\"fsck\""), "{text}");
        assert!(text.contains("\"outcome\":\"complete\""), "{text}");

        let query_report = dir.join("query.json");
        run(&[
            "query",
            observed.to_str().unwrap(),
            "0",
            "--report",
            query_report.to_str().unwrap(),
        ])
        .unwrap();
        let text = fs::read_to_string(&query_report).unwrap();
        twpp::validate_report_json(&text).unwrap();
        assert!(text.contains("\"command\":\"query\""), "{text}");
        assert!(
            text.contains("twpp_cli_query_traces_printed_total"),
            "{text}"
        );

        // A budget-stopped compact still writes a "stopped" report.
        let stopped_report = dir.join("stopped.json");
        let never = dir.join("never.twpa");
        let err = run(&[
            "compact",
            wpp_path.to_str().unwrap(),
            "-o",
            never.to_str().unwrap(),
            "--max-events",
            "1",
            "--report",
            stopped_report.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Failed(_)), "{err}");
        let text = fs::read_to_string(&stopped_report).unwrap();
        twpp::validate_report_json(&text).unwrap();
        assert!(text.contains("\"outcome\":\"stopped\""), "{text}");
        assert!(text.contains("\"stop_reason\":\"step_limit\""), "{text}");

        fs::remove_dir_all(&dir).ok();
    }
}
