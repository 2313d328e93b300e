//! Merging sealed segments into one whole-trace archive, and the
//! offline directory checker behind `twpp fsck <dir>`.
//!
//! The paper's compaction works on the whole WPP at once, so compaction
//! runs exactly once per ingest run, here. The merge reads the raw-window
//! log strictly against the manifests (see
//! [`segment::read_clean_chain`]), appends its event words to one buffer
//! pre-sized from the manifests — which by the chain invariants *is* the
//! original event stream — and runs the ordinary batch pipeline over it.
//! Archive segments an older build sealed are unwrapped by
//! reconstruction on the same path.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use twpp_tracer::WppEvent;
use twpp_tracer::raw::RawWpp;

use crate::archive::TwppArchive;
use crate::gov::{Budget, FaultPlan};
use crate::obs::Obs;
use crate::pipeline::{compact_governed, GovOptions, PipelineStats};

use super::compactor::IngestOptions;
use super::segment::{self, SegmentMeta, SegmentVerdict};
use super::wal::{self, WalError, WalReplay};
use super::{io_err, IngestError};

/// Path of the merged whole-trace archive inside a compactor directory.
pub fn merged_path(dir: &Path) -> PathBuf {
    dir.join("merged.twpa")
}

/// The sealed windows of `metas`, concatenated as encoded event words.
fn sealed_words(dir: &Path, metas: &[SegmentMeta]) -> Result<Vec<u32>, IngestError> {
    let total = metas.last().map_or(0, SegmentMeta::accepted_after);
    let mut words = Vec::with_capacity(total as usize);
    segment::read_clean_chain(dir, metas, Some(&mut words))?;
    Ok(words)
}

/// Concatenates every sealed window and batch-compacts the result.
/// Returns the archive (not yet written) and the pipeline stats.
pub(super) fn merge_segments(
    dir: &Path,
    metas: &[SegmentMeta],
    opts: &IngestOptions,
) -> Result<(TwppArchive, PipelineStats), IngestError> {
    let _s = opts.obs.span("ingest_merge");
    let wpp = RawWpp::from_words(sealed_words(dir, metas)?)
        .map_err(|e| IngestError::Segment(format!("{}: sealed windows: {e}", dir.display())))?;
    let gov = GovOptions {
        threads: opts.threads,
        budget: Budget::unlimited(),
        fail_fast: opts.fail_fast,
        faults: FaultPlan::none(),
        obs: opts.obs.clone(),
    };
    let (compacted, mut stats) = compact_governed(&wpp, &gov)?;
    let t = Instant::now();
    let archive = TwppArchive::from_compacted_codec(
        &compacted,
        &HashMap::new(),
        crate::par::resolve_threads(opts.threads),
        &stats.degraded.failed,
        &opts.obs,
        opts.codec,
    );
    stats.timings.archive_encode_nanos = t.elapsed().as_nanos() as u64;
    Ok((archive, stats))
}

/// The full event stream a compactor directory durably holds: sealed
/// windows in order, then the WAL tail. This is exactly what a resumed
/// run would go on to merge.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DirReplay {
    /// The original event stream.
    pub events: Vec<WppEvent>,
    /// How many of those events came from sealed segments.
    pub sealed_events: u64,
    /// The validated segment chain.
    pub metas: Vec<SegmentMeta>,
    /// Whether the WAL ended in a torn (dropped) record.
    pub wal_torn: bool,
}

/// Reads a compactor directory offline (no writes, no lock) and
/// returns the event stream it holds, reading the sealed windows as the
/// merge does. Fails on the same inconsistencies
/// [`crate::ingest::Compactor::resume`] would reject.
pub fn replay_dir_events(dir: &Path) -> Result<DirReplay, IngestError> {
    let metas = segment::load_sealed_chain(dir)?.metas;
    let mut events: Vec<WppEvent> = sealed_words(dir, &metas)?
        .into_iter()
        .filter_map(WppEvent::decode)
        .collect();
    let sealed = metas.last().map_or(0, SegmentMeta::accepted_after);
    debug_assert_eq!(events.len() as u64, sealed);
    let replay = read_wal(dir)?;
    for (off, batch) in &replay.batches {
        if off + batch.len() as u64 <= sealed {
            continue;
        }
        let expect = events.len() as u64;
        if *off != expect {
            return Err(IngestError::Segment(format!(
                "WAL record at event offset {off} does not follow the durable position {expect}"
            )));
        }
        events.extend_from_slice(batch);
    }
    Ok(DirReplay {
        sealed_events: sealed,
        wal_torn: replay.torn_at.is_some(),
        metas,
        events,
    })
}

pub(super) fn read_wal(dir: &Path) -> Result<WalReplay, IngestError> {
    let wpath = wal::wal_path(dir);
    let bytes = match fs::read(&wpath) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err(&wpath, &e)),
    };
    Ok(wal::replay_bytes(&bytes)?)
}

/// One sealed segment's verdict in a [`DirCheck`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SegmentCheck {
    /// Its manifest.
    pub meta: SegmentMeta,
    /// How its data file verified: an archive segment's salvage report,
    /// or a raw window's record count and first damage.
    pub verdict: SegmentVerdict,
}

/// The verdict of `twpp fsck` over a compactor directory.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DirCheck {
    /// Per-segment verdicts, in chain order.
    pub segments: Vec<SegmentCheck>,
    /// A manifest-chain or WAL-position inconsistency that makes the
    /// directory non-resumable, if one was found.
    pub chain_error: Option<String>,
    /// Crash debris resume clears: `.tmp` leftovers, an older build's
    /// newest archive segment whose manifest never landed, and a chain
    /// log (`segments.wal`, `segments.man`) with an uncommitted tail.
    pub orphans: Vec<PathBuf>,
    /// Events covered by sealed segments.
    pub sealed_events: u64,
    /// Events waiting in the WAL tail.
    pub wal_events: u64,
    /// WAL records already covered by sealed segments (crash between
    /// manifest rename and WAL rotation; resume skips them).
    pub wal_skipped_records: u64,
    /// Whether the WAL ends in a torn record.
    pub wal_torn: bool,
    /// Bytes in that torn tail (what a resume would drop); zero when
    /// `wal_torn` is false.
    pub wal_torn_bytes: u64,
    /// The WAL is not ours or from a future version.
    pub wal_error: Option<WalError>,
}

impl DirCheck {
    /// No damage and no crash debris: every segment fully committed and
    /// clean, the chain consistent, the WAL tail whole.
    pub fn is_clean(&self) -> bool {
        self.is_resumable() && !self.wal_torn && self.orphans.is_empty()
    }

    /// Whether [`crate::ingest::Compactor::resume`] would accept this
    /// directory (crash debris is fine; damage and inconsistency are
    /// not).
    pub fn is_resumable(&self) -> bool {
        self.chain_error.is_none()
            && self.wal_error.is_none()
            && self.segments.iter().all(|s| s.verdict.is_clean())
    }

    /// Total events the directory durably holds.
    pub fn durable_events(&self) -> u64 {
        self.sealed_events + self.wal_events
    }
}

/// Checks a compactor directory offline: chain-validates the manifests,
/// verifies every sealed segment (strict read of a raw window, salvage
/// of an archive segment), and replays the WAL. Never
/// writes. I/O failures are still hard errors; *inconsistencies* are
/// reported in the returned [`DirCheck`] instead.
pub fn fsck_dir(dir: &Path, obs: &Obs) -> Result<DirCheck, IngestError> {
    let _s = obs.span("ingest_fsck");
    let mut check = DirCheck {
        segments: Vec::new(),
        chain_error: None,
        orphans: Vec::new(),
        sealed_events: 0,
        wal_events: 0,
        wal_skipped_records: 0,
        wal_torn: false,
        wal_torn_bytes: 0,
        wal_error: None,
    };
    let metas = match segment::load_sealed_chain(dir) {
        Ok(chain) => {
            check.orphans = chain.orphans;
            if chain.manifests.has_tail() {
                check.orphans.push(segment::manifests_path(dir));
            }
            chain.metas
        }
        Err(IngestError::Segment(msg)) => {
            check.chain_error = Some(msg);
            Vec::new()
        }
        Err(e) => return Err(e),
    };
    let (archives, windows) = segment::split_kinds(&metas);
    for meta in archives {
        let verdict = match segment::read_archive_segment(dir, meta, None) {
            Ok(report) => SegmentVerdict::Archive(report),
            Err(e @ IngestError::Archive(_)) => {
                // Nothing salvageable at all; keep checking the rest but
                // record the damage as a chain error.
                check.chain_error.get_or_insert(format!(
                    "{}: unsalvageable segment archive: {e}",
                    meta.data_path(dir).display()
                ));
                continue;
            }
            Err(e) => return Err(e),
        };
        check.sealed_events = meta.accepted_after();
        check.segments.push(SegmentCheck { meta: meta.clone(), verdict });
    }
    let scan = segment::read_windows(dir, windows, None)?;
    let clean = scan.checks.iter().all(|c| c.damage.is_none());
    for (meta, window) in windows.iter().zip(scan.checks) {
        check.sealed_events = meta.accepted_after();
        check.segments.push(SegmentCheck {
            meta: meta.clone(),
            verdict: SegmentVerdict::Window(window),
        });
    }
    if clean && check.chain_error.is_none() && scan.extent.has_tail() {
        check.orphans.push(segment::windows_path(dir));
    }
    match read_wal(dir) {
        Ok(replay) => {
            check.wal_torn = replay.torn_at.is_some();
            check.wal_torn_bytes = replay.torn_bytes;
            for (off, batch) in &replay.batches {
                if off + batch.len() as u64 <= check.sealed_events {
                    check.wal_skipped_records += 1;
                } else {
                    check.wal_events += batch.len() as u64;
                }
            }
        }
        Err(IngestError::Wal(e)) => check.wal_error = Some(e),
        Err(e) => return Err(e),
    }
    if check.wal_torn {
        obs.counter(
            "twpp_ingest_torn_tail_records_total",
            "torn WAL tails dropped on resume (never-acknowledged appends)",
        )
        .inc();
        obs.counter(
            "twpp_ingest_torn_tail_bytes_total",
            "bytes dropped with torn WAL tails on resume",
        )
        .add(check.wal_torn_bytes);
    }
    Ok(check)
}
