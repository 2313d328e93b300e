//! **twpp::ingest** — crash-safe incremental compaction.
//!
//! The batch pipeline ([`crate::pipeline::compact`]) needs the whole WPP
//! event stream in memory before it produces anything. This module turns
//! that into a production ingestion path: a resumable [`Compactor`] state
//! machine consumes WPP events incrementally, keeps the open window in
//! bounded memory, and makes every acknowledged event durable *before*
//! acknowledging it — in the spirit of Gorilla's seal-and-rotate
//! append-only blocks layered on the v3 commit-footer container.
//!
//! # On-disk layout of a compactor directory
//!
//! ```text
//! dir/
//!   wal.log          CRC-framed write-ahead log of the open window
//!   segments.wal     every sealed window's raw events, appended (WAL format)
//!   segments.man     their manifests, appended (event range + activation context)
//!   merged.twpa      written by `finish()`: the whole trace, one archive
//! ```
//!
//! A directory an older build left behind may also hold archive
//! segments (`seg-NNNNNN.twpa` + `seg-NNNNNN.man`, manifest version 1)
//! ahead of the raw windows; they are still read, never written.
//!
//! # The two invariants
//!
//! * **No acknowledged event is ever lost.** `feed` appends the batch to
//!   the WAL (at the requested durability) before returning; `seal`
//!   appends the window as a raw segment, then its manifest, then
//!   rotates the WAL — in that order, so at every instant the union of
//!   sealed segments and the WAL covers every acknowledged event.
//! * **Recovery is byte-identical.** A sealed segment holds exactly the
//!   window's original events, and the manifest chain places each window
//!   in the global stream. Merging therefore concatenates the *exact*
//!   original event stream and runs the ordinary batch pipeline over it
//!   — the only compaction of the run — so a run that was killed at any
//!   durability point and resumed produces a `merged.twpa`
//!   byte-identical to an uninterrupted run (proven by the kill-point
//!   harness, `TWPP_INJECT_KILL_AT`).
//!
//! See DESIGN.md §15 for the state machine diagram and the WAL record
//! format.
//!
//! # The streaming daemon
//!
//! [`serve`] (`twpp serve-ingest`, DESIGN.md §17) feeds one compactor
//! per source from framed connections and tailed files. It is a
//! [`crate::daemon::Handler`] on the skeleton it shares with `twpp
//! serve`; what is its own — backpressure, the watchdog, the tails, the
//! startup resume and the drain's seal-and-merge — lives in this module.

use std::error::Error;
use std::fmt;
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

use crate::archive::{ArchiveError, Durability};
use crate::gov::StopReason;
use crate::partition::PartitionError;
use crate::pipeline::PipelineError;

mod compactor;
mod merge;
mod segment;
mod server;
mod wal;

pub use compactor::{Compactor, FinishReport, IngestOptions, ResumeReport};
pub use crate::daemon::ServeListener;
pub use server::{
    serve, serve_with_admin, tail_source_name, ServeOptions, ServeReport, SourceReport,
};
pub use merge::{fsck_dir, merged_path, replay_dir_events, DirCheck, DirReplay, SegmentCheck};
pub use segment::{
    archive_path, list_segment_files, manifest_path, manifests_path, segment_events,
    windows_path, SegmentKind, SegmentMeta, SegmentVerdict, WindowCheck, WindowDamage,
    MANIFEST_VERSION,
};
pub use wal::{
    encode_record, replay_bytes, replay_strict, wal_path, Record, Records, WalError, WalReplay,
    WalWriter,
    WAL_FILE, WAL_HEADER_LEN, WAL_RECORD_HEADER_LEN, WAL_VERSION,
};

/// Errors from the ingest layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum IngestError {
    /// An I/O failure (path context included in the message).
    Io(String),
    /// The write-ahead log failed to append or replay.
    Wal(WalError),
    /// A segment manifest or the directory layout is inconsistent; the
    /// string describes what was expected and what was found.
    Segment(String),
    /// An archive segment (manifest version 1) failed to load or
    /// decode.
    Archive(ArchiveError),
    /// The compaction pipeline rejected a sealed window or the merge.
    Pipeline(PipelineError),
    /// An incoming event is structurally invalid at its position in the
    /// stream (same contract as [`crate::partition::partition`]); the
    /// whole `feed` batch is rejected and nothing is acknowledged.
    Stream(PartitionError),
    /// The compactor's budget was cancelled; ingestion stops cleanly
    /// with all acknowledged events durable.
    Stopped(StopReason),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(msg) => write!(f, "ingest I/O error: {msg}"),
            IngestError::Wal(e) => write!(f, "write-ahead log: {e}"),
            IngestError::Segment(msg) => write!(f, "segment: {msg}"),
            IngestError::Archive(e) => write!(f, "segment archive: {e}"),
            IngestError::Pipeline(e) => write!(f, "compaction: {e}"),
            IngestError::Stream(e) => write!(f, "malformed event stream: {e}"),
            IngestError::Stopped(r) => write!(f, "ingestion stopped: {r}"),
        }
    }
}

impl Error for IngestError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IngestError::Wal(e) => Some(e),
            IngestError::Archive(e) => Some(e),
            IngestError::Pipeline(e) => Some(e),
            IngestError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for IngestError {
    fn from(e: WalError) -> Self {
        IngestError::Wal(e)
    }
}

impl From<ArchiveError> for IngestError {
    fn from(e: ArchiveError) -> Self {
        IngestError::Archive(e)
    }
}

impl From<PipelineError> for IngestError {
    fn from(e: PipelineError) -> Self {
        IngestError::Pipeline(e)
    }
}

/// Formats an I/O error with its path for [`IngestError::Io`].
fn io_err(path: &Path, e: &std::io::Error) -> IngestError {
    IngestError::Io(format!("{}: {e}", path.display()))
}

/// Atomically publishes `bytes` at `path`: writes a `.tmp` sibling,
/// applies `durability`, renames into place, and (for
/// [`Durability::Sync`]) fsyncs the containing directory so the rename
/// itself survives a power cut. Readers therefore never observe a
/// half-written segment or manifest — the file either exists complete or
/// not at all.
fn write_file_durable(
    path: &Path,
    bytes: &[u8],
    durability: Durability,
) -> Result<(), IngestError> {
    let tmp = tmp_path(path);
    {
        let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, &e))?;
        f.write_all(bytes).map_err(|e| io_err(&tmp, &e))?;
        durability.apply(&mut f).map_err(|e| io_err(&tmp, &e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, &e))?;
    if durability == Durability::Sync {
        if let Some(dir) = path.parent() {
            sync_dir(dir)?;
        }
    }
    Ok(())
}

/// The `.tmp` sibling a durable write stages into.
fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// fsyncs a directory so a completed rename inside it is durable.
fn sync_dir(dir: &Path) -> Result<(), IngestError> {
    let f = File::open(dir).map_err(|e| io_err(dir, &e))?;
    f.sync_all().map_err(|e| io_err(dir, &e))
}
