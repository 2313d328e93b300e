//! Sealed segments and their manifests.
//!
//! A sealed segment is the window's events frozen as they arrived: a
//! raw window in the write-ahead log's own format — CRC-framed records
//! whose global event offsets start at the window's `accepted_before`.
//! Nothing reads a segment between seal and drain, so a seal neither
//! wraps nor compacts; the drain compacts the concatenated windows once.
//! A window's manifest records where it sits in the global event stream
//! and the activation stack open at its start (`depth_start`) and end
//! (`end_stack`), which chain validation and a resumed activation stack
//! rely on.
//!
//! Raw windows and their manifests are *appended* to two chain logs
//! rather than written as a file pair per seal:
//!
//! * `segments.wal` — the `"TWPW"` header, then every sealed window's
//!   records in order; the whole file is itself a WAL image of the
//!   sealed stream;
//! * `segments.man` — every raw window's manifest, back to back (each
//!   one self-delimiting and CRC-checked).
//!
//! A file pair per seal would allocate two inodes per seal, and inode
//! allocation is the slow, unsteady filesystem operation (on ext4
//! without a journal it grows with the inodes recently deleted nearby,
//! see DESIGN.md §15); appending allocates none. A crash leaves at most
//! an uncommitted tail behind either log's committed prefix — a window
//! appended without its manifest, or a torn manifest — whose events are
//! still in the WAL; resume cuts it off.
//!
//! # Manifest format (all integers little-endian)
//!
//! ```text
//! "TWPM" | version u32 | seq u64 | events u64 | accepted_before u64
//!        | depth_start u32 | end_stack_len u32 | end_stack FuncId u32s
//!        | crc32 over everything above
//! ```
//!
//! Version 2 marks a raw window (an entry of `segments.man`). Version 1
//! marks an archive segment (`seg-000001.twpa` with its manifest in
//! `seg-000001.man`), which older builds wrote: a committed v3 archive
//! of the window *wrapped* into a well-formed single-root WPP
//! (`depth_start` synthetic `Enter`s in front; its reconstruction
//! appends `end_stack.len()` implicit `Exit`s). Such segments are still
//! read — verified by salvage and unwrapped by reconstruction — so a
//! directory an older build left behind resumes and finishes, with raw
//! windows sealed behind its archive segments, but they are never
//! written.

use std::borrow::Cow;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use twpp_ir::checksum::crc32;
use twpp_ir::FuncId;
use twpp_tracer::WppEvent;

use crate::archive::{Durability, TwppArchive};
use crate::recovery::{RecoveryReport, SalvageStrategy};

use super::wal::{self, Record, Records, WAL_HEADER_LEN};
use super::{io_err, sync_dir, IngestError};

/// Magic bytes opening a segment manifest.
pub const MANIFEST_MAGIC: [u8; 4] = *b"TWPM";
/// Manifest version written by this build: the segment is a raw window.
pub const MANIFEST_VERSION: u32 = 2;
/// Manifest version of an archive segment (read, never written).
const MANIFEST_VERSION_ARCHIVE: u32 = 1;
/// Fixed-size portion of a manifest before the stack and trailing CRC.
const MANIFEST_FIXED_LEN: usize = 4 + 4 + 8 + 8 + 8 + 4 + 4;
/// Sanity cap on a decoded stack length (deeper than any real trace).
const MAX_STACK_LEN: u32 = 1 << 24;
/// Events per record of a sealed raw window: 256 KiB of payload, so a
/// damaged byte condemns at most that much of the window.
const WINDOW_RECORD_EVENTS: usize = 1 << 16;
/// File name of the log every raw window is appended to.
pub const WINDOWS_FILE: &str = "segments.wal";
/// File name of the log every raw window's manifest is appended to.
pub const MANIFESTS_FILE: &str = "segments.man";

/// Path of segment `seq`'s archive (a version-1 segment) inside a
/// compactor directory.
pub fn archive_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:06}.twpa"))
}

/// Path of segment `seq`'s per-segment manifest (a version-1 segment)
/// inside a compactor directory.
pub fn manifest_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:06}.man"))
}

/// Path of the raw-window log inside a compactor directory.
pub fn windows_path(dir: &Path) -> PathBuf {
    dir.join(WINDOWS_FILE)
}

/// Path of the raw-window manifest log inside a compactor directory.
pub fn manifests_path(dir: &Path) -> PathBuf {
    dir.join(MANIFESTS_FILE)
}

/// What a segment's data is, as its manifest version says.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SegmentKind {
    /// Version 1: a compacted archive of the wrapped window
    /// (`seg-NNNNNN.twpa`, manifest `seg-NNNNNN.man`). Read only.
    Archive,
    /// Version 2: the raw window, records in `segments.wal`, manifest in
    /// `segments.man`.
    Window,
}

impl SegmentKind {
    /// The manifest version that marks this kind.
    pub fn version(self) -> u32 {
        match self {
            SegmentKind::Archive => MANIFEST_VERSION_ARCHIVE,
            SegmentKind::Window => MANIFEST_VERSION,
        }
    }

    /// Path of the file holding segment `seq`'s data: its own archive,
    /// or the raw-window log shared by every raw window.
    pub fn path(self, dir: &Path, seq: u64) -> PathBuf {
        match self {
            SegmentKind::Archive => archive_path(dir, seq),
            SegmentKind::Window => windows_path(dir),
        }
    }
}

/// The manifest of one sealed segment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SegmentMeta {
    /// 1-based sequence number; segments are contiguous from 1.
    pub seq: u64,
    /// The data file's kind (the manifest version).
    pub kind: SegmentKind,
    /// Events of the original stream in this window.
    pub events: u64,
    /// Events of the original stream sealed into earlier segments.
    pub accepted_before: u64,
    /// The activation depth at the window's start.
    pub depth_start: u32,
    /// Activations still open at the window's end, outermost first. The
    /// next segment's `depth_start` equals this stack's length.
    pub end_stack: Vec<FuncId>,
}

impl SegmentMeta {
    /// Activation depth at the window's end.
    pub fn depth_end(&self) -> u32 {
        self.end_stack.len() as u32
    }

    /// Events of the original stream sealed once this segment is in.
    pub fn accepted_after(&self) -> u64 {
        self.accepted_before + self.events
    }

    /// Path of this segment's data file inside `dir`.
    pub fn data_path(&self, dir: &Path) -> PathBuf {
        self.kind.path(dir, self.seq)
    }

    /// Serialises the manifest.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MANIFEST_FIXED_LEN + self.end_stack.len() * 4 + 4);
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.extend_from_slice(&self.kind.version().to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.events.to_le_bytes());
        out.extend_from_slice(&self.accepted_before.to_le_bytes());
        out.extend_from_slice(&self.depth_start.to_le_bytes());
        out.extend_from_slice(&(self.end_stack.len() as u32).to_le_bytes());
        for f in &self.end_stack {
            out.extend_from_slice(&f.as_u32().to_le_bytes());
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes and verifies a manifest. The error string says what was
    /// wrong; callers wrap it with the file's path.
    pub fn decode(bytes: &[u8]) -> Result<SegmentMeta, String> {
        if bytes.len() < MANIFEST_FIXED_LEN + 4 {
            return Err(format!("manifest too short ({} bytes)", bytes.len()));
        }
        if bytes[..4] != MANIFEST_MAGIC {
            return Err("bad manifest magic (expected TWPM)".to_owned());
        }
        let u32_at = |at: usize| {
            let mut b = [0u8; 4];
            b.copy_from_slice(&bytes[at..at + 4]);
            u32::from_le_bytes(b)
        };
        let u64_at = |at: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(b)
        };
        let kind = match u32_at(4) {
            MANIFEST_VERSION_ARCHIVE => SegmentKind::Archive,
            MANIFEST_VERSION => SegmentKind::Window,
            version => return Err(format!("unsupported manifest version {version}")),
        };
        let stack_len = u32_at(MANIFEST_FIXED_LEN - 4);
        if stack_len > MAX_STACK_LEN {
            return Err(format!("implausible stack length {stack_len}"));
        }
        let want = MANIFEST_FIXED_LEN + stack_len as usize * 4 + 4;
        if bytes.len() != want {
            return Err(format!(
                "manifest length mismatch: {} bytes, expected {want}",
                bytes.len()
            ));
        }
        let crc_at = want - 4;
        let actual = crc32(&bytes[..crc_at]);
        if actual != u32_at(crc_at) {
            return Err("manifest checksum mismatch".to_owned());
        }
        let end_stack = (0..stack_len as usize)
            .map(|i| FuncId::from_u32(u32_at(MANIFEST_FIXED_LEN + i * 4)))
            .collect();
        Ok(SegmentMeta {
            seq: u64_at(8),
            kind,
            events: u64_at(16),
            accepted_before: u64_at(24),
            depth_start: u32_at(32),
            end_stack,
        })
    }
}

/// Encodes the records a seal appends to `segments.wal` for one raw
/// window: `events` as records of at most [`WINDOW_RECORD_EVENTS`]
/// events whose offsets count on from `accepted_before`.
pub(super) fn encode_window(accepted_before: u64, events: &[WppEvent]) -> Vec<u8> {
    let records = events.len().div_ceil(WINDOW_RECORD_EVENTS);
    let mut out = Vec::with_capacity(records * wal::WAL_RECORD_HEADER_LEN + events.len() * 4);
    let mut offset = accepted_before;
    for chunk in events.chunks(WINDOW_RECORD_EVENTS) {
        wal::encode_record(offset, chunk, &mut out);
        offset += chunk.len() as u64;
    }
    out
}

/// Length of the manifest at the start of `bytes`, or `None` if `bytes`
/// holds only a prefix of one (an append a crash cut short).
fn manifest_len(bytes: &[u8]) -> Result<Option<usize>, String> {
    if bytes.len() < MANIFEST_FIXED_LEN {
        return Ok(None);
    }
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[MANIFEST_FIXED_LEN - 4..MANIFEST_FIXED_LEN]);
    let stack_len = u32::from_le_bytes(b);
    if stack_len > MAX_STACK_LEN {
        return Err(format!("implausible stack length {stack_len}"));
    }
    let len = MANIFEST_FIXED_LEN + stack_len as usize * 4 + 4;
    Ok((bytes.len() >= len).then_some(len))
}

/// Where a chain log's committed prefix ends. Bytes past it are an
/// append a crash interrupted before its commit; resume cuts them off.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub(super) struct LogExtent {
    /// Length of the committed prefix in bytes.
    pub committed: u64,
    /// Length of the file in bytes (zero when it does not exist).
    pub len: u64,
}

impl LogExtent {
    /// Whether the log carries an uncommitted tail.
    pub fn has_tail(&self) -> bool {
        self.len > self.committed
    }
}

/// Cuts a chain log back to its committed prefix, if it has a tail.
/// Returns whether there was one.
pub(super) fn cut_tail(
    path: &Path,
    extent: LogExtent,
    durability: Durability,
) -> Result<bool, IngestError> {
    if !extent.has_tail() {
        return Ok(false);
    }
    let mut file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err(path, &e))?;
    file.set_len(extent.committed).map_err(|e| io_err(path, &e))?;
    durability.apply(&mut file).map_err(|e| io_err(path, &e))?;
    Ok(true)
}

/// The header `segments.wal` starts with: the WAL's own.
static WINDOWS_HEADER: [u8; WAL_HEADER_LEN] = [
    wal::WAL_MAGIC[0],
    wal::WAL_MAGIC[1],
    wal::WAL_MAGIC[2],
    wal::WAL_MAGIC[3],
    wal::WAL_VERSION.to_le_bytes()[0],
    wal::WAL_VERSION.to_le_bytes()[1],
    wal::WAL_VERSION.to_le_bytes()[2],
    wal::WAL_VERSION.to_le_bytes()[3],
];

/// Writes one raw window's records (see [`encode_window`]) into
/// `segments.wal` at `end`, the log's committed end. Returns the new end.
pub(super) fn append_window(
    dir: &Path,
    end: u64,
    records: &[u8],
    durability: Durability,
) -> Result<u64, IngestError> {
    write_log_at(&windows_path(dir), &WINDOWS_HEADER, end, records, durability)
}

/// Writes one raw window's manifest into `segments.man` at `end`, the
/// log's committed end. Returns the new end.
pub(super) fn append_manifest(
    dir: &Path,
    end: u64,
    meta: &SegmentMeta,
    durability: Durability,
) -> Result<u64, IngestError> {
    write_log_at(&manifests_path(dir), &[], end, &meta.encode(), durability)
}

/// Writes `bytes` into the chain log at `path` from byte `at`, its
/// committed end, and makes them durable; a log written from byte 0
/// starts with `header`. Whatever lies past `at` — an append an earlier
/// failed seal left uncommitted — is cut off first, so a retried seal
/// rewrites its window in place. Returns the log's new end. The log is
/// opened per append, so a compactor holds no descriptor for it between
/// seals.
fn write_log_at(
    path: &Path,
    header: &[u8],
    at: u64,
    bytes: &[u8],
    durability: Durability,
) -> Result<u64, IngestError> {
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|e| io_err(path, &e))?;
    let data = if at == 0 {
        Cow::Owned([header, bytes].concat())
    } else {
        Cow::Borrowed(bytes)
    };
    let mut write = || {
        file.set_len(at)?;
        file.seek(SeekFrom::Start(at))?;
        file.write_all(&data)?;
        durability.apply(&mut file)
    };
    if let Err(e) = write() {
        let _ = file.set_len(at);
        return Err(io_err(path, &e));
    }
    if at == 0 && durability == Durability::Sync {
        if let Some(dir) = path.parent() {
            sync_dir(dir)?;
        }
    }
    Ok(at + data.len() as u64)
}

/// Where and why a raw window failed its strict read.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WindowDamage {
    /// Byte offset in `segments.wal` of the first bad record (or of the
    /// log's end, when the window is short).
    pub at: u64,
    /// What was wrong there.
    pub reason: String,
}

/// The strict read of one raw window.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WindowCheck {
    /// Records that read cleanly and in sequence.
    pub records: u64,
    /// Events in those records.
    pub events: u64,
    /// The first damage found; `None` for a clean window.
    pub damage: Option<WindowDamage>,
}

/// The strict read of the raw-window log against its manifests.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(super) struct WindowsScan {
    /// One check per manifest, in chain order.
    pub checks: Vec<WindowCheck>,
    /// The log's committed prefix: the header and every manifest's
    /// records. Only meaningful when every window is clean.
    pub extent: LogExtent,
}

impl WindowsScan {
    fn is_clean(&self) -> bool {
        self.checks.iter().all(|c| c.damage.is_none())
    }
}

/// Bytes of `segments.wal` read at a time, so a merge never holds the
/// whole log next to the event words it builds from it.
const READ_CHUNK: usize = 1 << 20;

/// The windows of a strict read, checked one record at a time against
/// their manifests: every record CRC-valid, each window's records
/// contiguous from its `accepted_before`, none running past its end,
/// and exactly its `events` events.
struct WindowReader<'m> {
    metas: &'m [SegmentMeta],
    checks: Vec<WindowCheck>,
    /// The window being read.
    open: WindowCheck,
}

impl<'m> WindowReader<'m> {
    fn new(metas: &'m [SegmentMeta]) -> WindowReader<'m> {
        let mut reader = WindowReader {
            metas,
            checks: Vec::with_capacity(metas.len()),
            open: WindowCheck { records: 0, events: 0, damage: None },
        };
        reader.close_full();
        reader
    }

    /// Whether every window has been read, or damage ended the read.
    fn done(&self) -> bool {
        self.checks.len() == self.metas.len()
    }

    /// Closes the open window while it holds its manifest's events.
    fn close_full(&mut self) {
        while !self.done() && self.open.events == self.metas[self.checks.len()].events {
            let empty = WindowCheck { records: 0, events: 0, damage: None };
            self.checks.push(std::mem::replace(&mut self.open, empty));
        }
    }

    /// Takes the record at byte `at` of the log, handing it to `visit`
    /// if it belongs where it is. Returns `false` on damage.
    fn record(
        &mut self,
        record: &Record<'_>,
        at: u64,
        visit: &mut impl FnMut(&Record<'_>),
    ) -> bool {
        let meta = &self.metas[self.checks.len()];
        let expect = meta.accepted_before + self.open.events;
        let after = self.open.events + record.event_count();
        if record.offset != expect {
            let reason =
                format!("record starts at event {} but the window is at {expect}", record.offset);
            self.fail(at, reason);
            return false;
        }
        if after > meta.events {
            let reason = format!(
                "record runs past the window's end ({after} events, manifest says {})",
                meta.events
            );
            self.fail(at, reason);
            return false;
        }
        visit(record);
        self.open.records += 1;
        self.open.events = after;
        self.close_full();
        true
    }

    /// Ends the read at byte `at` of a log whose records stop there:
    /// unreadable from `at` on, or ended if `at` is the log's length.
    fn stop(&mut self, at: u64, log_len: u64) {
        let reason = if at < log_len {
            "unreadable record (torn, checksum or bad event word)".to_owned()
        } else {
            let meta = &self.metas[self.checks.len()];
            format!("window holds {} events, manifest says {}", self.open.events, meta.events)
        };
        self.fail(at, reason);
    }

    /// Marks the open window damaged at byte `at`; the windows behind it
    /// cannot be located and share its damage.
    fn fail(&mut self, at: u64, reason: String) {
        self.open.damage = Some(WindowDamage { at, reason });
        let empty = WindowCheck { records: 0, events: 0, damage: None };
        self.checks.push(std::mem::replace(&mut self.open, empty));
        while !self.done() {
            self.checks.push(WindowCheck {
                records: 0,
                events: 0,
                damage: Some(WindowDamage {
                    at,
                    reason: "unreachable behind a damaged window".to_owned(),
                }),
            });
        }
    }
}

/// Reads the raw-window log from `log` (`len` bytes long) in pieces of
/// `chunk` bytes and checks it strictly against `metas`, the chain's raw
/// windows in order, handing every clean record to `visit`. Records are
/// parsed by the WAL's own parser; a record split across two pieces is
/// parsed once the next piece completes it.
fn scan_windows(
    log: &mut dyn Read,
    len: u64,
    chunk: usize,
    metas: &[SegmentMeta],
    mut visit: impl FnMut(&Record<'_>),
) -> std::io::Result<WindowsScan> {
    let mut reader = WindowReader::new(metas);
    let mut buf = Vec::new();
    (&mut *log).take(WAL_HEADER_LEN as u64).read_to_end(&mut buf)?;
    if buf.len() < WAL_HEADER_LEN || Records::new(&buf).is_err() {
        if !reader.done() {
            let reason = if buf.is_empty() {
                "window log missing or empty"
            } else {
                "bad or torn log header"
            };
            reader.fail(0, reason.to_owned());
        }
        let extent = LogExtent { committed: 0, len };
        return Ok(WindowsScan { checks: reader.checks, extent });
    }
    // Log offset of `buf[0]`.
    let mut base = WAL_HEADER_LEN as u64;
    buf.clear();
    let mut eof = false;
    while !reader.done() {
        if !eof {
            let want = chunk.max(1);
            eof = (&mut *log).take(want as u64).read_to_end(&mut buf)? < want;
        }
        let mut records = Records::headerless(&buf);
        for record in records.by_ref() {
            if !reader.record(&record, base + record.at, &mut visit) || reader.done() {
                break;
            }
        }
        let used = Records::position(&records);
        if !reader.done() && (eof || !records.needs_more()) {
            reader.stop(base + used as u64, len);
        }
        base += used as u64;
        buf.drain(..used);
    }
    Ok(WindowsScan { checks: reader.checks, extent: LogExtent { committed: base, len } })
}

/// Unwraps one version-1 archive segment back to the window's original
/// events.
///
/// The archive holds `[Enter; depth_start] ++ window`, and its
/// reconstruction appends `[Exit; end_stack.len()]` for the activations
/// still open at the window's end — so the original window is the slice
/// between the two.
pub fn segment_events(
    archive: &TwppArchive,
    meta: &SegmentMeta,
) -> Result<Vec<WppEvent>, IngestError> {
    let compacted = archive.to_compacted()?;
    let events = compacted.reconstruct().events();
    let d0 = meta.depth_start as usize;
    let d1 = meta.end_stack.len();
    let want = d0 + meta.events as usize + d1;
    if events.len() != want {
        return Err(IngestError::Segment(format!(
            "segment {} reconstructs to {} events, manifest implies {want}",
            meta.seq,
            events.len()
        )));
    }
    Ok(events[d0..d0 + meta.events as usize].to_vec())
}

/// How one sealed segment verified.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SegmentVerdict {
    /// An archive segment's salvage report (strategy `footer` and clean
    /// is good).
    Archive(RecoveryReport),
    /// A raw window's strict read.
    Window(WindowCheck),
}

impl SegmentVerdict {
    /// Whether the segment verified completely.
    pub fn is_clean(&self) -> bool {
        match self {
            SegmentVerdict::Archive(r) => r.strategy == SalvageStrategy::Footer && r.is_clean(),
            SegmentVerdict::Window(w) => w.damage.is_none(),
        }
    }
}

/// The chain's archive segments (a prefix, from an older build) and its
/// raw windows (the rest). [`load_sealed_chain`] guarantees that order.
pub(super) fn split_kinds(metas: &[SegmentMeta]) -> (&[SegmentMeta], &[SegmentMeta]) {
    let archives = metas.iter().take_while(|m| m.kind == SegmentKind::Archive).count();
    metas.split_at(archives)
}

/// Reads archive segment `meta` from `dir` without writing anything and
/// verifies it by salvage. If it is clean and `words` is given, appends
/// the window's original events to `words` as encoded event words.
///
/// I/O failures and an archive with nothing salvageable are errors;
/// damage is the returned report.
pub(super) fn read_archive_segment(
    dir: &Path,
    meta: &SegmentMeta,
    words: Option<&mut Vec<u32>>,
) -> Result<RecoveryReport, IngestError> {
    let path = meta.data_path(dir);
    let bytes = fs::read(&path).map_err(|e| io_err(&path, &e))?;
    let (archive, report) = TwppArchive::recover(&bytes)?;
    if let (Some(words), true) = (words, SegmentVerdict::Archive(report.clone()).is_clean()) {
        let events = segment_events(&archive, meta)?;
        words.extend(events.iter().map(|e| e.encode()));
    }
    Ok(report)
}

/// Reads `segments.wal` from `dir` without writing anything and checks
/// it strictly against `metas`, the chain's raw windows. If every
/// window is clean and `words` is given, appends their event words to
/// `words`.
pub(super) fn read_windows(
    dir: &Path,
    metas: &[SegmentMeta],
    words: Option<&mut Vec<u32>>,
) -> Result<WindowsScan, IngestError> {
    let path = windows_path(dir);
    let (mut log, len): (Box<dyn Read>, u64) = match File::open(&path) {
        Ok(file) => {
            let len = file.metadata().map_err(|e| io_err(&path, &e))?.len();
            (Box::new(file), len)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => (Box::new(std::io::empty()), 0),
        Err(e) => return Err(io_err(&path, &e)),
    };
    let scan = match words {
        Some(words) => {
            let start = words.len();
            let scan = scan_windows(&mut log, len, READ_CHUNK, metas, |r| words.extend(r.words()));
            if !scan.as_ref().is_ok_and(WindowsScan::is_clean) {
                words.truncate(start);
            }
            scan
        }
        None => scan_windows(&mut log, len, READ_CHUNK, metas, |_| {}),
    };
    scan.map_err(|e| io_err(&path, &e))
}

/// Reads every sealed segment of the chain `metas` in order and requires
/// each to verify cleanly (an [`IngestError::Segment`] names the first
/// that does not). Appends their events to `words` as encoded event
/// words if given. Returns the raw-window log's extent.
pub(super) fn read_clean_chain(
    dir: &Path,
    metas: &[SegmentMeta],
    mut words: Option<&mut Vec<u32>>,
) -> Result<LogExtent, IngestError> {
    let (archives, windows) = split_kinds(metas);
    for meta in archives {
        let report = read_archive_segment(dir, meta, words.as_deref_mut())?;
        if !SegmentVerdict::Archive(report.clone()).is_clean() {
            return Err(IngestError::Segment(format!(
                "{}: sealed segment failed salvage verification ({}); \
                 refusing to use damaged state",
                meta.data_path(dir).display(),
                report.strategy
            )));
        }
    }
    let scan = read_windows(dir, windows, words)?;
    for (meta, check) in windows.iter().zip(&scan.checks) {
        if let Some(d) = &check.damage {
            return Err(IngestError::Segment(format!(
                "{}: sealed raw window {} is damaged at byte {}: {}; refusing to use damaged state",
                windows_path(dir).display(),
                meta.seq,
                d.at,
                d.reason
            )));
        }
    }
    Ok(scan.extent)
}

/// One archive segment's files found on disk.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SegmentFiles {
    /// Sequence number parsed from the file name.
    pub seq: u64,
    /// The manifest path, if `seg-<seq>.man` exists.
    pub manifest: Option<PathBuf>,
    /// The archive path, if `seg-<seq>.twpa` exists.
    pub archive: Option<PathBuf>,
}

/// Scans a compactor directory for per-segment files (archive segments
/// and their manifests), sorted by sequence number. Also returns any
/// stray `.tmp` staging files (leftovers of a write that was racing a
/// crash — always safe to delete, their content was never acknowledged
/// as a file).
pub fn list_segment_files(dir: &Path) -> Result<(Vec<SegmentFiles>, Vec<PathBuf>), IngestError> {
    let mut by_seq: std::collections::BTreeMap<u64, SegmentFiles> =
        std::collections::BTreeMap::new();
    let mut tmps = Vec::new();
    for entry in fs::read_dir(dir).map_err(|e| io_err(dir, &e))? {
        let entry = entry.map_err(|e| io_err(dir, &e))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.ends_with(".tmp") {
            tmps.push(path);
            continue;
        }
        let Some((stem, ext)) = name.rsplit_once('.') else {
            continue;
        };
        let Some(seq) = stem
            .strip_prefix("seg-")
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if ext != "man" && ext != "twpa" {
            continue;
        }
        let files = by_seq.entry(seq).or_insert(SegmentFiles {
            seq,
            manifest: None,
            archive: None,
        });
        if ext == "man" {
            files.manifest = Some(path);
        } else {
            files.archive = Some(path);
        }
    }
    Ok((by_seq.into_values().collect(), tmps))
}

/// Reads `segments.man`: the raw windows' manifests in order, and the
/// log's extent (a torn final entry is an uncommitted tail). A complete
/// entry that does not decode, or one that is not a raw window's, is an
/// error.
fn read_manifest_log(dir: &Path) -> Result<(Vec<SegmentMeta>, LogExtent), IngestError> {
    let path = manifests_path(dir);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err(&path, &e)),
    };
    let bad = |pos: usize, e: String| {
        IngestError::Segment(format!("{}: manifest at byte {pos}: {e}", path.display()))
    };
    let mut metas = Vec::new();
    let mut pos = 0;
    while let Some(len) = manifest_len(&bytes[pos..]).map_err(|e| bad(pos, e))? {
        let meta = SegmentMeta::decode(&bytes[pos..pos + len]).map_err(|e| bad(pos, e))?;
        if meta.kind != SegmentKind::Window {
            return Err(bad(
                pos,
                format!(
                    "manifest version {} in the raw-window log (archive segments keep \\
                     per-segment manifests)",
                    meta.kind.version()
                ),
            ));
        }
        metas.push(meta);
        pos += len;
    }
    let extent = LogExtent { committed: pos as u64, len: bytes.len() as u64 };
    Ok((metas, extent))
}

/// A compactor directory's validated chain of sealed segments.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(super) struct SealedChain {
    /// Every sealed segment's manifest in chain order: archive segments
    /// an older build sealed, then raw windows.
    pub metas: Vec<SegmentMeta>,
    /// Crash debris files: `.tmp` leftovers and a newest archive segment
    /// whose manifest never landed.
    pub orphans: Vec<PathBuf>,
    /// The manifest log's extent; a tail is a torn final entry.
    pub manifests: LogExtent,
}

/// Loads and chain-validates every sealed segment's manifest: the
/// per-segment manifests of archive segments, then the entries of
/// `segments.man`.
///
/// The sealed chain must be contiguous from sequence 1, each segment's
/// `accepted_before` must equal its predecessor's `accepted_after`, and
/// its `depth_start` must equal the predecessor's end-stack depth —
/// otherwise the directory was not produced by a single ingest run and
/// resuming it would silently misplace events. A per-segment manifest
/// must be an archive segment's (version 1) with its archive present,
/// and an entry of the log a raw window's (version 2); one sequence
/// number in both places breaks contiguity. An archive *without* a
/// manifest is tolerated only as the newest segment (a crash between
/// an older build's archive rename and manifest rename); its events are
/// still in the WAL, so the orphan is reported for removal.
pub(super) fn load_sealed_chain(dir: &Path) -> Result<SealedChain, IngestError> {
    let (files, tmps) = list_segment_files(dir)?;
    let (windows, manifests) = read_manifest_log(dir)?;
    let last_manifest_seq = files
        .iter()
        .filter(|f| f.manifest.is_some())
        .map(|f| f.seq)
        .chain(windows.iter().map(|m| m.seq))
        .max();
    let mut metas = Vec::new();
    let mut orphans = tmps;
    for f in &files {
        match (&f.manifest, &f.archive) {
            (Some(man), Some(archive)) => {
                let bytes = fs::read(man).map_err(|e| io_err(man, &e))?;
                let meta = SegmentMeta::decode(&bytes)
                    .map_err(|e| IngestError::Segment(format!("{}: {e}", man.display())))?;
                if meta.seq != f.seq {
                    return Err(IngestError::Segment(format!(
                        "{}: manifest claims sequence {} but file name says {}",
                        man.display(),
                        meta.seq,
                        f.seq
                    )));
                }
                if meta.kind != SegmentKind::Archive {
                    return Err(IngestError::Segment(format!(
                        "{}: manifest version {} does not match the archive segment {}",
                        man.display(),
                        meta.kind.version(),
                        archive.display()
                    )));
                }
                metas.push(meta);
            }
            (Some(man), None) => {
                return Err(IngestError::Segment(format!(
                    "{}: manifest present but its segment archive is missing",
                    man.display()
                )));
            }
            (None, Some(archive)) => {
                // Only a crash between the two durable renames of the
                // *latest* seal can leave an archive without a manifest.
                if last_manifest_seq.is_some_and(|last| f.seq <= last) {
                    return Err(IngestError::Segment(format!(
                        "{}: segment has no manifest but later segments do",
                        archive.display()
                    )));
                }
                orphans.push(archive.clone());
            }
            (None, None) => unreachable!("entry without any file"),
        }
    }
    metas.extend(windows);
    for (i, meta) in metas.iter().enumerate() {
        let want_seq = i as u64 + 1;
        if meta.seq != want_seq {
            return Err(IngestError::Segment(format!(
                "sealed chain is not contiguous: expected sequence {want_seq}, found {} \
                 (seg-* files, then {MANIFESTS_FILE})",
                meta.seq
            )));
        }
        let (want_before, want_depth) = if i == 0 {
            (0, 0)
        } else {
            (metas[i - 1].accepted_after(), metas[i - 1].depth_end())
        };
        if meta.accepted_before != want_before {
            return Err(IngestError::Segment(format!(
                "segment {} starts at event {} but the chain had sealed {want_before}",
                meta.seq, meta.accepted_before
            )));
        }
        if meta.depth_start != want_depth {
            return Err(IngestError::Segment(format!(
                "segment {} starts at depth {} but the previous segment ended at {want_depth}",
                meta.seq, meta.depth_start
            )));
        }
    }
    Ok(SealedChain { metas, orphans, manifests })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn meta() -> SegmentMeta {
        SegmentMeta {
            seq: 3,
            kind: SegmentKind::Window,
            events: 1200,
            accepted_before: 2400,
            depth_start: 2,
            end_stack: vec![FuncId::from_index(0), FuncId::from_index(4)],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = meta();
        let bytes = m.encode();
        assert_eq!(SegmentMeta::decode(&bytes).unwrap(), m);
        assert_eq!(m.accepted_after(), 3600);
        assert_eq!(m.depth_end(), 2);
    }

    #[test]
    fn archive_manifests_still_decode() {
        let m = SegmentMeta { kind: SegmentKind::Archive, ..meta() };
        let bytes = m.encode();
        assert_eq!(bytes[4..8], 1u32.to_le_bytes());
        assert_eq!(SegmentMeta::decode(&bytes).unwrap(), m);
        let mut future = meta().encode();
        future[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert!(SegmentMeta::decode(&future).is_err());
    }

    fn window_log(windows: &[(u64, &[WppEvent])]) -> Vec<u8> {
        let mut log = WINDOWS_HEADER.to_vec();
        for (before, events) in windows {
            log.extend_from_slice(&encode_window(*before, events));
        }
        log
    }

    /// Scans `bytes` as the raw-window log in pieces of every size from
    /// one byte to the whole log, requiring one verdict from all of them.
    fn scan(bytes: &[u8], metas: &[SegmentMeta], words: &mut Vec<u32>) -> WindowsScan {
        let mut verdict: Option<(WindowsScan, Vec<u32>)> = None;
        for chunk in [1, 3, 7, 16, 61, bytes.len().max(1), READ_CHUNK] {
            let mut seen = Vec::new();
            let scan = scan_windows(&mut &bytes[..], bytes.len() as u64, chunk, metas, |r| {
                seen.extend(r.words())
            })
            .unwrap();
            match &verdict {
                Some(first) => assert_eq!(first, &(scan, seen), "chunk {chunk}"),
                None => verdict = Some((scan, seen)),
            }
        }
        let (scan, seen) = verdict.unwrap();
        *words = seen;
        scan
    }

    #[test]
    fn window_scan_checks_every_rule() {
        let events: Vec<WppEvent> =
            (0..1200).map(|i| WppEvent::Block(twpp_ir::BlockId::from_index(i))).collect();
        let m = meta();
        let good = window_log(&[(m.accepted_before, &events)]);
        let mut words = Vec::new();
        let clean = scan(&good, std::slice::from_ref(&m), &mut words);
        assert_eq!(clean.checks, vec![WindowCheck { records: 1, events: 1200, damage: None }]);
        let whole = good.len() as u64;
        assert_eq!(clean.extent, LogExtent { committed: whole, len: whole });
        assert_eq!(words, events.iter().map(|e| e.encode()).collect::<Vec<_>>());

        let damage = |bytes: &[u8], m: &SegmentMeta| {
            scan(bytes, std::slice::from_ref(m), &mut Vec::new()).checks[0].damage.clone()
        };
        let torn = damage(&good[..good.len() - 4], &m).unwrap();
        assert_eq!(torn.at, WAL_HEADER_LEN as u64);
        assert!(damage(&good, &SegmentMeta { accepted_before: 2401, ..meta() }).is_some());
        assert!(damage(&good, &SegmentMeta { events: 1199, ..meta() }).is_some());
        let long = damage(&good, &SegmentMeta { events: 1201, ..meta() }).unwrap();
        assert_eq!(long.at, good.len() as u64);
        assert!(damage(&good[..5], &m).is_some());
        assert!(damage(&[], &m).is_some());

        // A window appended without its manifest is a tail, not damage.
        let tail = window_log(&[(2400, &events), (3600, &events[..7])]);
        let scan_tail = scan(&tail, std::slice::from_ref(&m), &mut Vec::new());
        assert!(scan_tail.is_clean());
        assert_eq!(scan_tail.extent.committed, good.len() as u64);
        assert!(scan_tail.extent.has_tail());
        let bare = scan(&tail, &[], &mut Vec::new());
        assert_eq!(bare.extent.committed, WAL_HEADER_LEN as u64);

        // Two windows read through, split into records of any size.
        let next = SegmentMeta { seq: 4, accepted_before: 3600, events: 7, ..meta() };
        let both = scan(&tail, &[m.clone(), next.clone()], &mut words);
        assert!(both.is_clean());
        assert_eq!(both.extent.committed, tail.len() as u64);
        assert_eq!(words.len(), 1207);

        // Behind a damaged window, later ones cannot be located.
        let mut flipped = tail.clone();
        flipped[WAL_HEADER_LEN + 20] ^= 1;
        let broken = scan(&flipped, &[m, next], &mut Vec::new());
        assert!(broken.checks.iter().all(|c| c.damage.is_some()));
    }

    #[test]
    fn chain_logs_append_parse_and_cut_tails() {
        let dir = std::env::temp_dir().join(format!("twpp-chain-log-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let first = SegmentMeta { seq: 1, accepted_before: 0, depth_start: 0, ..meta() };
        let second = SegmentMeta { seq: 2, accepted_before: 1200, ..meta() };
        let end = append_manifest(&dir, 0, &first, Durability::Flush).unwrap();
        let end = append_manifest(&dir, end, &second, Durability::Flush).unwrap();
        let mut torn = first.encode();
        torn.truncate(10);
        write_log_at(&manifests_path(&dir), &[], end, &torn, Durability::Flush).unwrap();
        let (metas, extent) = read_manifest_log(&dir).unwrap();
        assert_eq!(metas, vec![first.clone(), second.clone()]);
        assert!(extent.has_tail());
        assert!(cut_tail(&manifests_path(&dir), extent, Durability::Flush).unwrap());
        assert_eq!(read_manifest_log(&dir).unwrap().1.len, extent.committed);

        let events = [WppEvent::Exit; 3];
        let one = append_window(&dir, 0, &encode_window(0, &events), Durability::Flush).unwrap();
        assert_eq!(one as usize, WAL_HEADER_LEN + wal::WAL_RECORD_HEADER_LEN + 12);
        let two = append_window(&dir, one, &encode_window(3, &events), Durability::Flush).unwrap();
        // A seal that failed after its window append is retried in place.
        let again = append_window(&dir, one, &encode_window(3, &events), Durability::Flush).unwrap();
        assert_eq!(again, two);
        let bytes = fs::read(windows_path(&dir)).unwrap();
        assert_eq!(bytes.len() as u64, two);
        assert_eq!(Records::new(&bytes).unwrap().count(), 2);

        let mut bad = second.encode();
        bad[9] ^= 1;
        fs::write(manifests_path(&dir), [first.encode(), bad].concat()).unwrap();
        assert!(matches!(read_manifest_log(&dir), Err(IngestError::Segment(_))));
        let archive = SegmentMeta { kind: SegmentKind::Archive, ..first };
        fs::write(manifests_path(&dir), archive.encode()).unwrap();
        assert!(matches!(read_manifest_log(&dir), Err(IngestError::Segment(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_rejects_corruption() {
        let m = meta();
        let good = m.encode();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert!(SegmentMeta::decode(&bad).is_err(), "flip at byte {i} undetected");
        }
        assert!(SegmentMeta::decode(&good[..good.len() - 1]).is_err());
        assert!(SegmentMeta::decode(&[]).is_err());
    }

    #[test]
    fn paths_are_zero_padded() {
        let dir = Path::new("/x");
        assert_eq!(archive_path(dir, 7), Path::new("/x/seg-000007.twpa"));
        assert_eq!(manifest_path(dir, 7), Path::new("/x/seg-000007.man"));
        assert_eq!(windows_path(dir), Path::new("/x/segments.wal"));
        assert_eq!(manifests_path(dir), Path::new("/x/segments.man"));
    }
}
