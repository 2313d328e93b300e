//! The resumable compactor state machine.
//!
//! ```text
//!             feed()                 feed()  [window full / budget]
//!   ┌──────┐ ───────► ┌───────────┐ ───────► ┌─────────┐
//!   │ Open │          │ Accepting │          │ Sealing │──┐
//!   └──────┘ ◄─────── └───────────┘ ◄─────── └─────────┘  │ archive
//!    create/            WAL append             WAL rotate  │ manifest
//!    resume                                        ▲───────┘
//!                          finish() ──► seal ──► merge ──► merged.twpa
//! ```
//!
//! A seal freezes the window as a raw segment; it does not compact.
//! Compaction runs once, in `finish`, over every sealed window.
//!
//! Every transition that makes bytes durable is a **durability point**
//! ([`FaultPlan::durability_point`]): the WAL append in `feed`, the
//! window rename / manifest rename / WAL rotation in `seal`, and the
//! merged-archive rename in `finish`. The kill-point harness aborts the
//! process at each point in turn and proves that
//! [`Compactor::resume`] + `finish` produces a `merged.twpa`
//! byte-identical to an uninterrupted run.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use twpp_ir::FuncId;
use twpp_tracer::WppEvent;

use crate::archive::Durability;
use crate::timestamped::Codec;
use crate::gov::{Budget, FaultPlan, Retry, StopReason};
use crate::obs::{Counter, Histogram, Obs};
use crate::partition::PartitionError;
use crate::pipeline::{PipelineError, PipelineStats};

use super::segment::{self, SegmentKind, SegmentMeta};
use super::wal::{self, WalWriter};
use super::{io_err, merge, write_file_durable, IngestError};

/// Options for an incremental ingestion run.
#[derive(Clone, Debug)]
pub struct IngestOptions {
    /// Seal the open window once it holds this many bytes of encoded
    /// events (4 per event). Default 1 MiB.
    pub seal_bytes: u64,
    /// Additionally seal whenever the window has been open this long.
    /// Checked on `feed`; an idle compactor does not wake itself up.
    pub seal_ms: Option<u64>,
    /// Durability of WAL appends and segment/manifest/merge commits.
    /// Default [`Durability::Sync`]: acknowledged means on disk.
    pub durability: Durability,
    /// Worker count for the merge compaction, resolved like
    /// [`crate::GovOptions::threads`]. The output is identical for
    /// every thread count. Seals do not compact.
    pub threads: Option<usize>,
    /// Resource envelope for the *ingest* layer. Exhaustion is
    /// backpressure, not death: the compactor seals the window early and
    /// keeps going (the sealed segments stay valid). Only cancellation
    /// stops ingestion, and even then every acknowledged event is
    /// already durable. The merge compaction runs unbudgeted — a drain
    /// that started is never abandoned halfway.
    pub budget: Budget,
    /// Degrade policy forwarded to the merge compaction.
    pub fail_fast: bool,
    /// Fault-injection plan; [`FaultPlan::durability_point`] is invoked
    /// at every durable transition (the kill-point harness).
    pub faults: FaultPlan,
    /// Observability sink (`twpp_core_ingest_*` metrics, `ingest_*`
    /// spans). Never influences output bytes.
    pub obs: Obs,
    /// Timestamp-set codec for the merged archive (sealed segments are
    /// raw windows and carry no timestamp sets).
    /// Default [`Codec::Legacy`] keeps output byte-identical to older
    /// runs; [`Codec::Adaptive`] writes archives that are never larger
    /// and that every reader still decodes.
    pub codec: Codec,
    /// Retry policy wrapping transient durable I/O (WAL appends, segment
    /// and manifest commits, WAL rotation, the merge write). Default
    /// [`Retry::none`]: fail on the first error, exactly the old
    /// behaviour. Attempts and exhaustions surface as
    /// `twpp_ingest_retry_*` metrics.
    pub retry: Retry,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            seal_bytes: 1 << 20,
            seal_ms: None,
            durability: Durability::Sync,
            threads: None,
            budget: Budget::unlimited(),
            fail_fast: true,
            faults: FaultPlan::none(),
            obs: Obs::noop(),
            codec: Codec::Legacy,
            retry: Retry::none(),
        }
    }
}

/// Cached metric handles (registration takes a lock; `feed` should not).
#[derive(Debug)]
struct IngestCounters {
    events: Counter,
    wal_records: Counter,
    wal_bytes: Counter,
    seals: Counter,
    early_seals: Counter,
    sealed_events: Counter,
    segment_bytes: Counter,
    retry_attempts: Counter,
    retry_exhausted: Counter,
    wal_append_us: Histogram,
    seal_us: Histogram,
}

/// Shared microsecond bucket ladder for the ingest latency histograms:
/// 100 µs to 10 s, roughly 1-2.5-5 per decade.
const LATENCY_BOUNDS_US: &[u64] = &[
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 10_000_000,
];

impl IngestCounters {
    fn new(obs: &Obs) -> IngestCounters {
        IngestCounters {
            events: obs.counter(
                "twpp_core_ingest_events_total",
                "events accepted (made durable) by the compactor",
            ),
            wal_records: obs.counter(
                "twpp_core_ingest_wal_records_total",
                "records appended to the write-ahead log",
            ),
            wal_bytes: obs.counter(
                "twpp_core_ingest_wal_bytes_total",
                "bytes appended to the write-ahead log",
            ),
            seals: obs.counter(
                "twpp_core_ingest_seals_total",
                "windows sealed into raw segments",
            ),
            early_seals: obs.counter(
                "twpp_core_ingest_early_seals_total",
                "seals forced by budget backpressure",
            ),
            sealed_events: obs.counter(
                "twpp_core_ingest_sealed_events_total",
                "events sealed into raw segments",
            ),
            segment_bytes: obs.counter(
                "twpp_core_ingest_segment_bytes_total",
                "bytes of sealed raw segments",
            ),
            retry_attempts: obs.counter(
                "twpp_ingest_retry_attempts_total",
                "transient I/O failures that were retried",
            ),
            retry_exhausted: obs.counter(
                "twpp_ingest_retry_exhausted_total",
                "operations that failed after exhausting their retry budget",
            ),
            wal_append_us: obs.histogram(
                "twpp_core_ingest_wal_append_us",
                "microseconds per durable WAL append (including fsync)",
                LATENCY_BOUNDS_US,
            ),
            seal_us: obs.histogram(
                "twpp_core_ingest_seal_us",
                "microseconds per window seal (raw window + manifest + WAL rotation)",
                LATENCY_BOUNDS_US,
            ),
        }
    }
}

/// Runs `op` under the retry policy, injecting transient I/O faults from
/// the fault plan (`TWPP_INJECT_IO_FAULTS`) ahead of each real attempt
/// and accounting every retried failure and exhaustion in the
/// `twpp_ingest_retry_*` counters. A free function so callers can borrow
/// disjoint `Compactor` fields (the op typically needs `&mut self.wal`).
fn run_retry<T>(
    retry: Retry,
    faults: &FaultPlan,
    counters: &IngestCounters,
    what: &str,
    mut op: impl FnMut() -> Result<T, IngestError>,
) -> Result<T, IngestError> {
    let outcome = retry.run(|_attempt| {
        if faults.take_io_fault() {
            return Err(IngestError::Io(format!(
                "injected transient I/O fault ({what})"
            )));
        }
        op()
    });
    match outcome {
        Ok((value, attempts)) => {
            counters.retry_attempts.add(u64::from(attempts.saturating_sub(1)));
            Ok(value)
        }
        Err(exhausted) => {
            counters
                .retry_attempts
                .add(u64::from(exhausted.attempts.saturating_sub(1)));
            counters.retry_exhausted.inc();
            Err(exhausted.last)
        }
    }
}

/// What [`Compactor::resume`] found on disk.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ResumeReport {
    /// Sealed segments in the validated chain.
    pub segments: u64,
    /// Events those segments cover.
    pub sealed_events: u64,
    /// Events replayed from the WAL tail into the open window.
    pub wal_events: u64,
    /// WAL records skipped because a crash landed between the manifest
    /// rename and the WAL rotation — their events were already sealed.
    pub wal_records_skipped: u64,
    /// Whether the WAL ended in a torn record (dropped; its events were
    /// never acknowledged).
    pub wal_torn: bool,
    /// Bytes dropped with that torn tail (zero when `wal_torn` is
    /// false). Also published as `twpp_ingest_torn_tail_bytes_total`.
    pub wal_torn_bytes: u64,
    /// Orphan files removed: `.tmp` staging leftovers and a newest
    /// segment data file whose manifest never landed (its events are
    /// still in the WAL).
    pub orphans_removed: u64,
}

/// What [`Compactor::finish`] produced.
#[derive(Clone, PartialEq, Debug)]
pub struct FinishReport {
    /// Path of the merged whole-trace archive.
    pub path: PathBuf,
    /// Total events across the run (every one of them in the merge).
    pub events: u64,
    /// Sealed segments that were merged.
    pub segments: u64,
    /// Batch-pipeline statistics of the merge compaction.
    pub stats: PipelineStats,
}

/// A resumable incremental compactor over one directory.
///
/// See the module docs for the state machine and the crash-safety
/// argument. The struct itself is the machine's in-memory half; the
/// durable half is the directory (`wal.log` + sealed segments), and
/// [`Compactor::resume`] rebuilds the former from the latter.
#[derive(Debug)]
pub struct Compactor {
    dir: PathBuf,
    opts: IngestOptions,
    wal: WalWriter,
    /// Committed ends of `segments.wal` and `segments.man`: where the
    /// next seal writes, over anything a failed seal left behind.
    windows_end: u64,
    manifests_end: u64,
    /// Activations currently open, outermost first.
    stack: Vec<FuncId>,
    /// Whether a root `Enter` has ever been accepted (the
    /// `MultipleRoots` guard, mirroring [`crate::partition::partition`]).
    root_seen: bool,
    /// Events accepted since the last seal (mirrors the WAL).
    window: Vec<WppEvent>,
    window_started: Instant,
    /// Events sealed into segments.
    sealed: u64,
    segments: Vec<SegmentMeta>,
    counters: IngestCounters,
}

impl Compactor {
    /// Starts a fresh compactor in `dir` (created if missing). Fails if
    /// the directory already holds compactor state — use
    /// [`Compactor::resume`] or [`Compactor::open`] for that.
    pub fn create(dir: &Path, opts: IngestOptions) -> Result<Compactor, IngestError> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        if dir_has_state(dir)? {
            return Err(IngestError::Segment(format!(
                "{}: directory already holds compactor state; resume it instead",
                dir.display()
            )));
        }
        let wal = WalWriter::create(&wal::wal_path(dir), opts.durability)?;
        opts.faults.durability_point();
        let counters = IngestCounters::new(&opts.obs);
        Ok(Compactor {
            dir: dir.to_path_buf(),
            wal,
            windows_end: 0,
            manifests_end: 0,
            stack: Vec::new(),
            root_seen: false,
            window: Vec::new(),
            window_started: Instant::now(),
            sealed: 0,
            segments: Vec::new(),
            counters,
            opts,
        })
    }

    /// Rebuilds a compactor from a directory a previous process left
    /// behind (crashed or cleanly stopped) and continues exactly where
    /// it stopped.
    ///
    /// Validation is strict where it must be and tolerant where a crash
    /// can legitimately leave debris: every sealed segment must verify
    /// cleanly by the rules of its manifest version (a raw window reads
    /// strictly; an archive segment an older build sealed must salvage
    /// as fully committed and clean) under a chain-consistent manifest;
    /// the WAL's torn tail (if any) is dropped — those bytes were never
    /// acknowledged; WAL records whose events a sealed segment already
    /// covers are skipped (crash between manifest rename and WAL
    /// rotation), making replay exactly-once; `.tmp` leftovers and an
    /// older build's manifest-less newest archive segment are deleted,
    /// and a chain log's uncommitted tail (a window appended without its
    /// manifest, a torn manifest) is cut off — its events are still in
    /// the WAL.
    pub fn resume(dir: &Path, opts: IngestOptions) -> Result<(Compactor, ResumeReport), IngestError> {
        let span_obs = opts.obs.clone();
        let _s = span_obs.span("ingest_resume");
        let chain = segment::load_sealed_chain(dir)?;
        let windows = segment::read_clean_chain(dir, &chain.metas, None)?;
        for p in &chain.orphans {
            fs::remove_file(p).map_err(|e| io_err(p, &e))?;
        }
        let mut orphans = chain.orphans.len() as u64;
        for (path, extent) in [
            (segment::manifests_path(dir), chain.manifests),
            (segment::windows_path(dir), windows),
        ] {
            orphans += u64::from(segment::cut_tail(&path, extent, opts.durability)?);
        }
        let metas = chain.metas;

        let replay = merge::read_wal(dir)?;
        let sealed = metas.last().map_or(0, SegmentMeta::accepted_after);
        let mut tail: Vec<WppEvent> = Vec::new();
        let mut skipped = 0u64;
        for (off, batch) in &replay.batches {
            if off + batch.len() as u64 <= sealed {
                skipped += 1;
                continue;
            }
            let expect = sealed + tail.len() as u64;
            if *off != expect {
                return Err(IngestError::Segment(format!(
                    "WAL record at event offset {off} does not follow the \
                     durable position {expect}"
                )));
            }
            tail.extend_from_slice(batch);
        }
        let wal = WalWriter::open_resume(&wal::wal_path(dir), opts.durability, replay.clean_bytes)?;

        let mut stack: Vec<FuncId> = metas.last().map_or_else(Vec::new, |m| m.end_stack.clone());
        let mut root_seen = sealed > 0;
        for ev in &tail {
            apply_event(&mut stack, &mut root_seen, *ev).map_err(IngestError::Stream)?;
        }

        let report = ResumeReport {
            segments: metas.len() as u64,
            sealed_events: sealed,
            wal_events: tail.len() as u64,
            wal_records_skipped: skipped,
            wal_torn: replay.torn_at.is_some(),
            wal_torn_bytes: replay.torn_bytes,
            orphans_removed: orphans,
        };
        let obs = &opts.obs;
        obs.counter("twpp_core_ingest_resumes_total", "compactor resumes").inc();
        obs.counter(
            "twpp_core_ingest_wal_replayed_events_total",
            "events replayed from the WAL on resume",
        )
        .add(report.wal_events);
        if report.wal_torn {
            obs.counter(
                "twpp_core_ingest_wal_torn_tails_total",
                "torn WAL tails dropped on resume",
            )
            .inc();
            obs.counter(
                "twpp_ingest_torn_tail_records_total",
                "torn WAL tails dropped on resume (never-acknowledged appends)",
            )
            .inc();
            obs.counter(
                "twpp_ingest_torn_tail_bytes_total",
                "bytes dropped with torn WAL tails on resume",
            )
            .add(report.wal_torn_bytes);
        }
        let counters = IngestCounters::new(obs);
        Ok((
            Compactor {
                dir: dir.to_path_buf(),
                wal,
                windows_end: windows.committed,
                manifests_end: chain.manifests.committed,
                stack,
                root_seen,
                window: tail,
                window_started: Instant::now(),
                sealed,
                segments: metas,
                counters,
                opts,
            },
            report,
        ))
    }

    /// Creates or resumes, depending on whether `dir` already holds
    /// compactor state. The report is `Some` iff this was a resume.
    pub fn open(
        dir: &Path,
        opts: IngestOptions,
    ) -> Result<(Compactor, Option<ResumeReport>), IngestError> {
        if dir.exists() && dir_has_state(dir)? {
            let (c, r) = Compactor::resume(dir, opts)?;
            Ok((c, Some(r)))
        } else {
            Ok((Compactor::create(dir, opts)?, None))
        }
    }

    /// Accepts a batch of events. On `Ok`, every event in the batch is
    /// durable (WAL or sealed segment) at the configured durability.
    ///
    /// The batch is validated first and rejected atomically: an event
    /// that [`crate::partition::partition`] would reject at its position
    /// in the stream (`MultipleRoots`, `EventOutsideActivation`) fails the whole call
    /// with [`IngestError::Stream`] and acknowledges nothing. This eager
    /// mirror of the batch pipeline's error contract is what keeps the
    /// concatenated sealed windows a well-formed WPP.
    pub fn feed(&mut self, events: &[WppEvent]) -> Result<(), IngestError> {
        if events.is_empty() {
            return Ok(());
        }
        if let Err(StopReason::Cancelled) = self.opts.budget.check() {
            return Err(IngestError::Stopped(StopReason::Cancelled));
        }
        let mut stack = self.stack.clone();
        let mut root_seen = self.root_seen;
        for &ev in events {
            apply_event(&mut stack, &mut root_seen, ev).map_err(IngestError::Stream)?;
        }

        let offset = self.accepted_events();
        let wal = &mut self.wal;
        let append_started = Instant::now();
        let bytes = run_retry(
            self.opts.retry,
            &self.opts.faults,
            &self.counters,
            "wal append",
            || wal.append(offset, events).map_err(IngestError::from),
        )?;
        self.counters
            .wal_append_us
            .observe(append_started.elapsed().as_micros() as u64);
        self.opts.faults.durability_point();
        self.counters.events.add(events.len() as u64);
        self.counters.wal_records.inc();
        self.counters.wal_bytes.add(bytes);

        self.stack = stack;
        self.root_seen = root_seen;
        if self.window.is_empty() {
            self.window_started = Instant::now();
        }
        self.window.extend_from_slice(events);

        // Budget is backpressure here, not death: charge the work, and
        // if the envelope is exhausted seal early so memory and WAL stay
        // bounded. Only cancellation (checked above) stops ingestion.
        let _ = self.opts.budget.charge_steps(events.len() as u64);
        let _ = self.opts.budget.charge_bytes(4 * events.len() as u64);
        let exhausted = matches!(
            self.opts.budget.check(),
            Err(StopReason::Deadline | StopReason::StepLimit | StopReason::ByteLimit)
        );
        let full = 4 * self.window.len() as u64 >= self.opts.seal_bytes;
        let stale = self
            .opts
            .seal_ms
            .is_some_and(|ms| self.window_started.elapsed().as_millis() as u64 >= ms);
        if full || stale || exhausted {
            if exhausted {
                self.counters.early_seals.inc();
            }
            self.seal()?;
        }
        Ok(())
    }

    /// Seals the open window into a raw segment. No-op on an empty
    /// window. Returns the new segment's sequence number.
    ///
    /// The window is appended to `segments.wal` as it arrived — no
    /// wrapping, no compaction (that happens once, at
    /// [`Compactor::finish`]) and no new file. Durable commit order —
    /// raw window, then its manifest appended to `segments.man`, then
    /// WAL rotation, each its own durability point — is what makes
    /// every crash state recoverable: a window without a manifest is an
    /// uncommitted tail resume cuts off (events still in the WAL), and a
    /// manifest without the WAL rotation just makes resume skip the
    /// WAL's now-sealed records.
    pub fn seal(&mut self) -> Result<Option<u64>, IngestError> {
        if self.window.is_empty() {
            return Ok(None);
        }
        let _s = self.opts.obs.span("ingest_seal");
        let seal_started = Instant::now();
        // Injection point for the serve watchdog tests: a configured
        // delay makes this seal look wedged without real slow I/O.
        self.opts.faults.apply_delay();
        let meta = SegmentMeta {
            seq: self.segments.len() as u64 + 1,
            kind: SegmentKind::Window,
            events: self.window.len() as u64,
            accepted_before: self.sealed,
            depth_start: self.segments.last().map_or(0, SegmentMeta::depth_end),
            end_stack: self.stack.clone(),
        };
        let image = segment::encode_window(meta.accepted_before, &self.window);
        let durability = self.opts.durability;

        let windows_end = run_retry(
            self.opts.retry,
            &self.opts.faults,
            &self.counters,
            "segment window commit",
            || segment::append_window(&self.dir, self.windows_end, &image, durability),
        )?;
        self.opts.faults.durability_point();

        let manifests_end = run_retry(
            self.opts.retry,
            &self.opts.faults,
            &self.counters,
            "segment manifest commit",
            || segment::append_manifest(&self.dir, self.manifests_end, &meta, durability),
        )?;
        self.opts.faults.durability_point();

        let wal = &mut self.wal;
        run_retry(
            self.opts.retry,
            &self.opts.faults,
            &self.counters,
            "wal rotation",
            || wal.reset().map_err(IngestError::from),
        )?;
        self.opts.faults.durability_point();

        self.counters.seals.inc();
        self.counters.sealed_events.add(meta.events);
        self.counters.segment_bytes.add(windows_end - self.windows_end);
        self.windows_end = windows_end;
        self.manifests_end = manifests_end;
        self.sealed += meta.events;
        self.window.clear();
        self.window_started = Instant::now();
        let seq = meta.seq;
        self.segments.push(meta);
        self.counters
            .seal_us
            .observe(seal_started.elapsed().as_micros() as u64);
        Ok(Some(seq))
    }

    /// Seals whatever is open, concatenates every sealed window back
    /// into the original event stream, batch-compacts it — the run's one
    /// compaction — and durably writes `merged.twpa`. The merged archive
    /// is byte-identical to what
    /// [`crate::compact_governed`] would have produced on the whole
    /// stream in one process — regardless of how the stream was chunked
    /// across `feed` calls, seals, crashes and resumes.
    ///
    /// The segment files and the (now empty) WAL are left in place: the
    /// directory stays inspectable by `twpp fsck` and idempotently
    /// re-finishable.
    pub fn finish(mut self) -> Result<FinishReport, IngestError> {
        self.seal()?;
        if self.sealed == 0 {
            return Err(IngestError::Pipeline(PipelineError::Partition(
                PartitionError::Empty,
            )));
        }
        let (archive, stats) = merge::merge_segments(&self.dir, &self.segments, &self.opts)?;
        let path = merge::merged_path(&self.dir);
        run_retry(
            self.opts.retry,
            &self.opts.faults,
            &self.counters,
            "merged archive commit",
            || write_file_durable(&path, archive.as_bytes(), self.opts.durability),
        )?;
        self.opts.faults.durability_point();
        self.opts
            .obs
            .counter("twpp_core_ingest_merged_events_total", "events in the merged archive")
            .add(self.sealed);
        Ok(FinishReport {
            path,
            events: self.sealed,
            segments: self.segments.len() as u64,
            stats,
        })
    }

    /// The compactor directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total events accepted (durable) so far: sealed plus open window.
    pub fn accepted_events(&self) -> u64 {
        self.sealed + self.window.len() as u64
    }

    /// Events sealed into raw segments.
    pub fn sealed_events(&self) -> u64 {
        self.sealed
    }

    /// Sealed segments so far.
    pub fn segment_count(&self) -> u64 {
        self.segments.len() as u64
    }

    /// Events currently in the open window (bounded by `seal_bytes`).
    pub fn window_events(&self) -> u64 {
        self.window.len() as u64
    }

    /// Current activation depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Whether the resource envelope is exhausted. Exhaustion is
    /// backpressure — every further `feed` seals early — not death, so
    /// callers (the serve telemetry plane) may only want to report it.
    /// Cancellation is not exhaustion.
    pub fn budget_exhausted(&self) -> bool {
        matches!(
            self.opts.budget.check(),
            Err(StopReason::Deadline | StopReason::StepLimit | StopReason::ByteLimit)
        )
    }
}

/// Applies one event to the simulated activation stack, enforcing the
/// same eager error contract as [`crate::partition::partition`]: a
/// `Block` or `Exit` outside any activation and a second root are
/// rejected; a stream that simply stops with activations open is fine
/// (they close implicitly).
fn apply_event(
    stack: &mut Vec<FuncId>,
    root_seen: &mut bool,
    ev: WppEvent,
) -> Result<(), PartitionError> {
    match ev {
        WppEvent::Enter(f) => {
            if stack.is_empty() && *root_seen {
                return Err(PartitionError::MultipleRoots);
            }
            stack.push(f);
            *root_seen = true;
        }
        WppEvent::Block(_) => {
            if stack.is_empty() {
                return Err(PartitionError::EventOutsideActivation);
            }
        }
        WppEvent::Exit => {
            if stack.pop().is_none() {
                return Err(PartitionError::EventOutsideActivation);
            }
        }
    }
    Ok(())
}

/// Whether `dir` contains compactor state (a WAL, a chain log or any
/// segment file).
fn dir_has_state(dir: &Path) -> Result<bool, IngestError> {
    let logs = [wal::wal_path(dir), segment::windows_path(dir), segment::manifests_path(dir)];
    if logs.iter().any(|p| p.exists()) {
        return Ok(true);
    }
    let (files, _) = segment::list_segment_files(dir)?;
    Ok(!files.is_empty())
}
