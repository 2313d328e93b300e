//! The TWPP archive: the on-disk container whose layout makes per-function
//! queries fast (the paper's access-time study, Tables 4 and 5).
//!
//! # Version 3 layout (current)
//!
//! Every region carries a CRC32, function regions are self-delimiting
//! frames appended in stream order, and the function table lives in a
//! *footer* written last — so a crash mid-write leaves a salvageable
//! prefix of intact frames instead of a table pointing at garbage:
//!
//! ```text
//! "TWPA" | version=3 | dcg_comp_len | names_len | header_crc
//! LZW-compressed DCG (padded to 4) | dcg_crc
//! name table [count, (func_id, len, utf8)…] (padded to 4) | names_crc
//! frames, most-called first:
//!     "TWPR" | func | call_count | n_dicts | n_traces | payload_len | frame_crc
//!     payload words (dictionaries then timestamped traces)
//! footer:
//!     "TWPT" | per function: func, call_count, n_dicts, n_traces,
//!                            frame_offset, payload_len, frame_crc
//!     n_funcs | data_len | footer_crc | "TWPC"
//! ```
//!
//! `frame_crc` covers the frame's header fields *and* its payload, so a
//! flip anywhere in a region is caught whether the reader arrives via the
//! footer table or by scanning for frame magics. The trailing `"TWPC"`
//! commit marker is the last thing written: its absence means the archive
//! was interrupted and [`TwppArchive::recover`] must scan for frames.
//!
//! # Version 2 layout (legacy, still readable)
//!
//! ```text
//! "TWPA" | version=2 | n_funcs | dcg_comp_len | names_len
//! function table: func | call_count | n_dicts | n_traces | offset | byte_len
//! LZW-compressed DCG (padded to 4)
//! optional name table: per function, a length-prefixed UTF-8 name
//! per-function regions at the recorded offsets
//! ```
//!
//! Reading the traces of one function touches the metadata prefix
//! (header, DCG, names), the footer and exactly one region in either
//! version: `O(metadata + footer + that function's data)`, versus
//! scanning the entire stream for the uncompacted WPP. Every strict
//! reader — [`TwppArchive`], [`crate::lazy::LazyArchive`] and
//! [`TwppArchive::read_function_from_file`] — validates through the one
//! index parser and frame check below; [`TwppArchive::recover`] reuses
//! the footer parser, metadata CRC check and frame check.

#![deny(clippy::unwrap_used)]

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

use twpp_ir::checksum::{crc32, Crc32};
use twpp_ir::{BlockId, FuncId};

use crate::dbb::DbbDictionary;
use crate::dcg::Dcg;
use crate::lzw::{self, LzwError};
use crate::pipeline::{CompactedTwpp, FunctionBlock};
use crate::recovery::{FunctionVerdict, RecoveryReport, RegionStatus, SalvageStrategy};
use crate::timestamped::{Codec, TimestampedTrace, TimestampedTraceError};

/// How hard a file-writing path pushes bytes toward the platter before
/// reporting success. Threaded from the CLI into [`TwppArchive::save_with`]
/// and the ingest WAL/segment-seal paths, so production ingestion can
/// request real durability while tests stay fast.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
#[non_exhaustive]
pub enum Durability {
    /// Hand the bytes to the OS and return — fastest, survives a process
    /// crash but not a power cut.
    None,
    /// Additionally flush userspace buffers (the pre-existing behavior of
    /// [`TwppArchive::save`]; the default).
    #[default]
    Flush,
    /// `fsync` the file (and, on the ingest paths, the containing
    /// directory after a rename) before reporting success — the only mode
    /// whose acknowledgements survive a power cut.
    Sync,
}

impl Durability {
    /// Stable string form (`none` / `flush` / `sync`), the CLI flag
    /// vocabulary.
    pub fn as_str(self) -> &'static str {
        match self {
            Durability::None => "none",
            Durability::Flush => "flush",
            Durability::Sync => "sync",
        }
    }

    /// Parses the CLI flag vocabulary.
    pub fn parse(s: &str) -> Option<Durability> {
        match s {
            "none" => Some(Durability::None),
            "flush" => Some(Durability::Flush),
            "sync" => Some(Durability::Sync),
            _ => None,
        }
    }

    /// Applies this durability level to an open file whose bytes have
    /// been written.
    pub fn apply(self, f: &mut File) -> std::io::Result<()> {
        match self {
            Durability::None => Ok(()),
            Durability::Flush => f.flush(),
            Durability::Sync => f.sync_all(),
        }
    }
}

const MAGIC: [u8; 4] = *b"TWPA";
/// Current container version.
pub const VERSION: u32 = 3;
/// Legacy container version, still accepted by every read path.
pub const VERSION_V2: u32 = 2;
const FIXED_HEADER_LEN: usize = 20;

const FRAME_MAGIC: [u8; 4] = *b"TWPR";
/// Bytes of a v3 frame header preceding the payload.
const FRAME_HEADER_LEN: usize = 28;
const FOOTER_MAGIC: [u8; 4] = *b"TWPT";
const COMMIT_MAGIC: [u8; 4] = *b"TWPC";
const FOOTER_ENTRY_BYTES: usize = 7 * 4;
/// Footer bytes besides the entries: magic + n_funcs + data_len +
/// footer_crc + commit marker.
const FOOTER_FIXED_LEN: usize = 20;

/// Footer `offset` sentinel marking a function the writer recorded as
/// *failed during compaction* (degraded run): no frame bytes exist for
/// it. Sentinel entries carry `byte_len == 0` and `crc == 0`; only the
/// function id and call count are meaningful.
const SENTINEL_OFFSET: u32 = u32::MAX;

/// Upper bound on the declared function count before any allocation.
pub const MAX_FUNCTIONS: usize = 1 << 20;
/// Upper bound on the decompressed DCG size accepted by [`TwppArchive::read_dcg`].
pub const MAX_DCG_RAW_BYTES: usize = 1 << 28;

/// Bytes of a v2 header table entry (a footer entry without the CRC).
const V2_ENTRY_BYTES: usize = 6 * 4;

/// Errors produced while encoding or decoding an archive.
#[derive(Debug)]
#[non_exhaustive]
pub enum ArchiveError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input does not start with the `TWPA` magic.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// The archive is shorter than its header claims.
    Truncated,
    /// The requested function is not present.
    UnknownFunction(FuncId),
    /// The function is listed in the archive but was recorded as failed
    /// during a degraded compaction run: no payload exists by design.
    DegradedFunction(FuncId),
    /// A region failed structural decoding; the string names the spot.
    Corrupt(&'static str),
    /// The compressed DCG failed to decompress.
    Lzw(LzwError),
    /// A timestamped trace failed to decode.
    Trace(TimestampedTraceError),
    /// A region's stored CRC32 does not match its bytes.
    ChecksumMismatch {
        /// Which region failed.
        region: &'static str,
        /// The CRC stored in the archive.
        expected: u32,
        /// The CRC computed over the bytes actually present.
        actual: u32,
    },
    /// The archive has no trailing commit marker: the writer was
    /// interrupted before [`ArchiveWriter::finish`].
    NotCommitted,
    /// A declared size exceeds a hard decoding cap.
    TooLarge {
        /// What was too large.
        what: &'static str,
        /// The declared value.
        declared: u64,
        /// The cap it exceeded.
        limit: u64,
    },
    /// A governed read stopped because its [`crate::gov::Budget`] ran
    /// out before the frame bytes were fetched.
    Stopped(crate::gov::StopReason),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive I/O error: {e}"),
            ArchiveError::BadMagic => f.write_str("missing TWPA magic"),
            ArchiveError::BadVersion(v) => write!(f, "unsupported archive version {v}"),
            ArchiveError::Truncated => f.write_str("truncated archive"),
            ArchiveError::UnknownFunction(id) => write!(f, "function {id} not in archive"),
            ArchiveError::DegradedFunction(id) => write!(
                f,
                "function {id} was recorded as failed during compaction (degraded archive)"
            ),
            ArchiveError::Corrupt(what) => write!(f, "corrupt archive: {what}"),
            ArchiveError::Lzw(e) => write!(f, "corrupt compressed DCG: {e}"),
            ArchiveError::Trace(e) => write!(f, "corrupt timestamped trace: {e}"),
            ArchiveError::ChecksumMismatch {
                region,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in {region}: stored {expected:#010x}, computed {actual:#010x}"
            ),
            ArchiveError::NotCommitted => {
                f.write_str("archive has no commit marker (interrupted write)")
            }
            ArchiveError::TooLarge {
                what,
                declared,
                limit,
            } => write!(f, "declared {what} {declared} exceeds cap {limit}"),
            ArchiveError::Stopped(reason) => {
                write!(f, "governed read stopped: {}", reason.as_str())
            }
        }
    }
}

impl Error for ArchiveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ArchiveError::Io(e) => Some(e),
            ArchiveError::Lzw(e) => Some(e),
            ArchiveError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> ArchiveError {
        ArchiveError::Io(e)
    }
}

impl From<TimestampedTraceError> for ArchiveError {
    fn from(e: TimestampedTraceError) -> ArchiveError {
        ArchiveError::Trace(e)
    }
}

impl From<LzwError> for ArchiveError {
    fn from(e: LzwError) -> ArchiveError {
        ArchiveError::Lzw(e)
    }
}

/// One entry of the archive's function table.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct TableEntry {
    func: FuncId,
    call_count: u32,
    n_dicts: u32,
    n_traces: u32,
    /// v3: offset of the function's *frame* from the start of the data
    /// section. v2: offset of the raw region.
    offset: u32,
    /// Payload length in bytes (excluding the v3 frame header).
    byte_len: u32,
    /// v3 frame CRC (over header fields + payload); 0 for v2 entries.
    crc: u32,
}

impl TableEntry {
    /// Whether this entry is a degraded-function sentinel (no frame).
    fn is_sentinel(&self) -> bool {
        self.offset == SENTINEL_OFFSET && self.byte_len == 0
    }
}

/// The decoded per-function payload: what a query for one function returns.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FunctionRecord {
    /// The function.
    pub func: FuncId,
    /// Number of calls recorded in the WPP.
    pub call_count: u64,
    /// The function's DBB dictionaries.
    pub dicts: Vec<DbbDictionary>,
    /// Unique timestamped traces with their dictionary indices.
    pub traces: Vec<(u32, TimestampedTrace)>,
}

impl FunctionRecord {
    /// Expands every unique trace back to its full block sequence.
    ///
    /// # Panics
    ///
    /// On a dictionary index out of range. Records decoded from archives
    /// are always validated, so this only fires for hand-built records;
    /// use [`FunctionRecord::try_expanded_traces`] when the record's
    /// provenance is unknown (e.g. CLI input).
    pub fn expanded_traces(&self) -> Vec<crate::trace::PathTrace> {
        self.traces
            .iter()
            .map(|(dict_idx, tt)| self.dicts[*dict_idx as usize].expand(&tt.to_path_trace()))
            .collect()
    }

    /// Fallible variant of [`FunctionRecord::expanded_traces`]: a
    /// dictionary index out of range yields a typed error instead of a
    /// panic.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Corrupt`] when a trace references a dictionary the
    /// record does not hold.
    pub fn try_expanded_traces(&self) -> Result<Vec<crate::trace::PathTrace>, ArchiveError> {
        self.traces
            .iter()
            .map(|(dict_idx, tt)| {
                self.dicts
                    .get(*dict_idx as usize)
                    .map(|d| d.expand(&tt.to_path_trace()))
                    .ok_or(ArchiveError::Corrupt("dictionary index"))
            })
            .collect()
    }

    fn into_block(self) -> FunctionBlock {
        FunctionBlock {
            func: self.func,
            call_count: self.call_count,
            dicts: self.dicts,
            traces: self.traces,
        }
    }
}

/// Streaming v3 archive writer: header and metadata up front, function
/// frames appended one at a time, footer and commit marker last.
///
/// Because each frame is checksummed and self-delimiting, a process that
/// dies between [`ArchiveWriter::add_function`] calls leaves a file whose
/// completed frames are fully recoverable with [`TwppArchive::recover`] —
/// only the footer (and the commit marker) are missing.
///
/// # Examples
///
/// ```
/// use twpp::archive::ArchiveWriter;
/// use twpp::{compact, TwppArchive};
/// use std::collections::HashMap;
/// # use twpp_tracer::{run_traced, ExecLimits};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let program = twpp_lang::compile("fn main() { print(1); }")?;
/// # let (_, wpp) = run_traced(&program, &[], ExecLimits::default())?;
/// let c = compact(&wpp)?;
/// let mut w = ArchiveWriter::new(Vec::new(), &c.dcg, &HashMap::new())?;
/// for fb in &c.functions {
///     w.add_function(fb)?;
/// }
/// let bytes = w.finish()?;
/// assert!(TwppArchive::from_bytes(bytes).is_ok());
/// # Ok(())
/// # }
/// ```
pub struct ArchiveWriter<W: Write> {
    sink: W,
    table: Vec<TableEntry>,
    data_len: usize,
    /// Timestamp-set encoder for every frame this writer emits
    /// ([`Codec::Legacy`] unless [`ArchiveWriter::with_codec`] said
    /// otherwise). Readers are codec-agnostic: the choice is recorded in
    /// the per-block tags, not the container.
    codec: Codec,
}

impl<W: Write> ArchiveWriter<W> {
    /// Writes the header, compressed DCG and name table, returning a
    /// writer ready to append function frames.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(
        mut sink: W,
        dcg: &Dcg,
        names: &HashMap<FuncId, String>,
    ) -> Result<ArchiveWriter<W>, ArchiveError> {
        let dcg_words = dcg.to_words();
        let dcg_bytes: Vec<u8> = dcg_words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let dcg_comp = lzw::compress(&dcg_bytes);
        let name_blob = encode_names_v3(names);

        let mut header = Vec::with_capacity(FIXED_HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        push_u32(&mut header, VERSION);
        push_u32(&mut header, dcg_comp.len() as u32);
        push_u32(&mut header, name_blob.len() as u32);
        let hcrc = crc32(&header);
        push_u32(&mut header, hcrc);
        sink.write_all(&header)?;

        sink.write_all(&dcg_comp)?;
        let pad = dcg_comp.len().div_ceil(4) * 4 - dcg_comp.len();
        sink.write_all(&[0u8; 3][..pad])?;
        sink.write_all(&crc32(&dcg_comp).to_le_bytes())?;

        sink.write_all(&name_blob)?;
        sink.write_all(&crc32(&name_blob).to_le_bytes())?;

        Ok(ArchiveWriter {
            sink,
            table: Vec::new(),
            data_len: 0,
            codec: Codec::Legacy,
        })
    }

    /// Selects the timestamp-set codec for frames appended after this
    /// call. [`Codec::Legacy`] (the default) keeps output byte-identical
    /// to pre-codec archives; [`Codec::Adaptive`] never produces a larger
    /// frame. Either way the result decodes through the same readers.
    #[must_use]
    pub fn with_codec(mut self, codec: Codec) -> ArchiveWriter<W> {
        self.codec = codec;
        self
    }

    /// Appends one function's frame (header + checksummed payload).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink and encoding errors from
    /// out-of-domain timestamps.
    pub fn add_function(&mut self, fb: &FunctionBlock) -> Result<(), ArchiveError> {
        let frame = encode_frame(fb, self.codec)?;
        self.commit_frame(frame)
    }

    /// Appends many function frames, encoding and checksumming them on up
    /// to `threads` workers while committing the bytes to the sink **in
    /// input order** — the archive produced is byte-identical to calling
    /// [`ArchiveWriter::add_function`] for each block sequentially,
    /// because frame encoding is pure per function and only the commit
    /// step touches the sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink and encoding errors from
    /// out-of-domain timestamps. On error, no frame at or after the
    /// first failing block has been committed.
    pub fn add_functions(
        &mut self,
        blocks: &[FunctionBlock],
        threads: usize,
    ) -> Result<(), ArchiveError> {
        self.add_functions_observed(blocks, threads, &crate::obs::Obs::noop())
    }

    /// Like [`ArchiveWriter::add_functions`], additionally recording
    /// per-worker `encode_frame` spans and the
    /// `twpp_core_frames_encoded_total` counter into `obs`. The bytes
    /// committed are identical either way.
    ///
    /// # Errors
    ///
    /// Same as [`ArchiveWriter::add_functions`].
    pub fn add_functions_observed(
        &mut self,
        blocks: &[FunctionBlock],
        threads: usize,
        obs: &crate::obs::Obs,
    ) -> Result<(), ArchiveError> {
        let codec = self.codec;
        let (frames, _report) =
            crate::par::map_indexed_observed(blocks, threads, obs, "encode_frame", |_, fb| {
                encode_frame(fb, codec)
            });
        if obs.is_enabled() {
            obs.counter(
                "twpp_core_frames_encoded_total",
                "Archive function frames encoded",
            )
            .add(blocks.len() as u64);
        }
        for frame in frames {
            self.commit_frame(frame?)?;
        }
        Ok(())
    }

    /// Records a function whose per-function compaction stage failed
    /// under the degrade policy. **No frame bytes are written** — the
    /// footer gets a sentinel entry (offset `u32::MAX`, zero length and
    /// CRC) carrying only the id and call count, so `twpp fsck` and
    /// strict readers can report exactly which functions a degraded run
    /// lost. Archives with no failed functions are byte-identical to
    /// pre-degradation archives.
    pub fn add_failed_function(&mut self, func: FuncId, call_count: u64) {
        self.table.push(TableEntry {
            func,
            call_count: u32::try_from(call_count).unwrap_or(u32::MAX),
            n_dicts: 0,
            n_traces: 0,
            offset: SENTINEL_OFFSET,
            byte_len: 0,
            crc: 0,
        });
    }

    /// Writes an already-encoded frame to the sink and records its table
    /// entry. Must be called in the intended function order.
    fn commit_frame(&mut self, frame: EncodedFrame) -> Result<(), ArchiveError> {
        self.sink.write_all(&frame.head)?;
        self.sink.write_all(&frame.payload)?;
        self.table.push(TableEntry {
            offset: self.data_len as u32,
            ..frame.entry
        });
        self.data_len += FRAME_HEADER_LEN + frame.payload.len();
        Ok(())
    }

    /// Writes the footer and commit marker, flushes, and returns the sink.
    /// The archive is only valid for strict readers once this succeeds.
    ///
    /// **Durability.** `finish` flushes but deliberately does not fsync:
    /// the sink is a generic [`Write`] (most callers encode into a
    /// `Vec<u8>`), so there is no file handle to sync here. Callers that
    /// need the commit marker to actually survive a power cut must write
    /// through a file-level path that syncs *before renaming the file
    /// into place* — [`TwppArchive::save_with`] with
    /// [`Durability::Sync`], or the ingest layer's segment-seal path,
    /// which additionally fsyncs the containing directory. On an
    /// unsynced crash the commit marker may be missing or torn; the
    /// frame-scan salvage of [`TwppArchive::recover`] is the designed
    /// fallback for exactly that case.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn finish(mut self) -> Result<W, ArchiveError> {
        let mut footer = Vec::with_capacity(4 + self.table.len() * FOOTER_ENTRY_BYTES + 8);
        footer.extend_from_slice(&FOOTER_MAGIC);
        for e in &self.table {
            push_u32(&mut footer, e.func.as_u32());
            push_u32(&mut footer, e.call_count);
            push_u32(&mut footer, e.n_dicts);
            push_u32(&mut footer, e.n_traces);
            push_u32(&mut footer, e.offset);
            push_u32(&mut footer, e.byte_len);
            push_u32(&mut footer, e.crc);
        }
        push_u32(&mut footer, self.table.len() as u32);
        push_u32(&mut footer, self.data_len as u32);
        let fcrc = crc32(&footer);
        push_u32(&mut footer, fcrc);
        footer.extend_from_slice(&COMMIT_MAGIC);
        self.sink.write_all(&footer)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// One fully encoded, checksummed function frame awaiting commit to the
/// sink. Produced by the pure [`encode_frame`] step so frame encoding can
/// run on worker threads while commits stay sequential and ordered.
struct EncodedFrame {
    /// The 28-byte frame header (`TWPR` magic through frame CRC).
    head: Vec<u8>,
    /// The payload bytes the CRC covers together with `head[4..24]`.
    payload: Vec<u8>,
    /// Table entry for the footer; `offset` is filled in at commit time.
    entry: TableEntry,
}

/// Encodes and checksums one function's frame without touching any sink —
/// pure per function, hence safe to fan across worker threads.
fn encode_frame(fb: &FunctionBlock, codec: Codec) -> Result<EncodedFrame, ArchiveError> {
    let words = encode_region(fb, codec)?;
    let payload: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();

    let mut head = Vec::with_capacity(FRAME_HEADER_LEN);
    head.extend_from_slice(&FRAME_MAGIC);
    push_u32(&mut head, fb.func.as_u32());
    push_u32(&mut head, u32::try_from(fb.call_count).unwrap_or(u32::MAX));
    push_u32(&mut head, fb.dicts.len() as u32);
    push_u32(&mut head, fb.traces.len() as u32);
    push_u32(&mut head, payload.len() as u32);
    let mut h = Crc32::new();
    h.update(&head[4..24]);
    h.update(&payload);
    let crc = h.finalize();
    push_u32(&mut head, crc);

    Ok(EncodedFrame {
        entry: TableEntry {
            func: fb.func,
            call_count: u32::try_from(fb.call_count).unwrap_or(u32::MAX),
            n_dicts: fb.dicts.len() as u32,
            n_traces: fb.traces.len() as u32,
            offset: 0,
            byte_len: payload.len() as u32,
            crc,
        },
        head,
        payload,
    })
}

/// An encoded TWPP archive with a parsed function index.
///
/// # Examples
///
/// ```
/// use twpp::{compact, TwppArchive};
/// use twpp_tracer::{run_traced, ExecLimits};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = twpp_lang::compile(
///     "fn main() { let i = 0; while (i < 4) { print(i); i = i + 1; } }",
/// )?;
/// let (_, wpp) = run_traced(&program, &[], ExecLimits::default())?;
/// let archive = TwppArchive::from_compacted(&compact(&wpp)?);
/// let record = archive.read_function(program.main())?;
/// assert_eq!(record.call_count, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TwppArchive {
    bytes: Vec<u8>,
    index: Index,
}

impl TwppArchive {
    /// Encodes a compacted TWPP into archive form (without function
    /// names; see [`TwppArchive::from_compacted_named`]).
    pub fn from_compacted(c: &CompactedTwpp) -> TwppArchive {
        TwppArchive::from_compacted_named(c, &HashMap::new())
    }

    /// Encodes a compacted TWPP in the current (v3) layout, embedding the
    /// given function names so tools can query by name. Frame encoding
    /// runs on [`crate::par::default_threads`] workers; the bytes are
    /// identical to a single-threaded encode.
    pub fn from_compacted_named(c: &CompactedTwpp, names: &HashMap<FuncId, String>) -> TwppArchive {
        TwppArchive::from_compacted_named_with_threads(c, names, crate::par::default_threads())
    }

    /// Like [`TwppArchive::from_compacted_named`] with an explicit worker
    /// count for the frame-encoding stage. Output bytes do not depend on
    /// `threads`.
    pub fn from_compacted_named_with_threads(
        c: &CompactedTwpp,
        names: &HashMap<FuncId, String>,
        threads: usize,
    ) -> TwppArchive {
        let mut w = ArchiveWriter::new(Vec::new(), &c.dcg, names)
            .expect("writing to an in-memory buffer cannot fail");
        w.add_functions(&c.functions, threads)
            .expect("pipeline-produced blocks always encode");
        let bytes = w
            .finish()
            .expect("writing to an in-memory buffer cannot fail");
        TwppArchive::from_bytes(bytes).expect("freshly encoded archive must parse")
    }

    /// Encodes the output of a possibly degraded governed compaction run:
    /// like [`TwppArchive::from_compacted_named_with_threads`], plus one
    /// sentinel footer entry per failed function so readers and `twpp
    /// fsck` can report exactly what the run lost. With an empty
    /// `failed` slice the bytes are identical to the plain encoder.
    pub fn from_compacted_governed(
        c: &CompactedTwpp,
        names: &HashMap<FuncId, String>,
        threads: usize,
        failed: &[crate::pipeline::FailedFunction],
    ) -> TwppArchive {
        TwppArchive::from_compacted_governed_obs(c, names, threads, failed, &crate::obs::Obs::noop())
    }

    /// Like [`TwppArchive::from_compacted_governed`], additionally
    /// recording an `archive_encode` span, per-worker `encode_frame`
    /// spans and the frame counter into `obs`. Bytes are identical to
    /// the unobserved encoder.
    pub fn from_compacted_governed_obs(
        c: &CompactedTwpp,
        names: &HashMap<FuncId, String>,
        threads: usize,
        failed: &[crate::pipeline::FailedFunction],
        obs: &crate::obs::Obs,
    ) -> TwppArchive {
        TwppArchive::from_compacted_codec(c, names, threads, failed, obs, Codec::Legacy)
    }

    /// The full-parameter encoder: like
    /// [`TwppArchive::from_compacted_governed_obs`] with an explicit
    /// timestamp-set [`Codec`]. Every other constructor delegates here
    /// with [`Codec::Legacy`], so the default output stays byte-identical
    /// to pre-codec archives.
    pub fn from_compacted_codec(
        c: &CompactedTwpp,
        names: &HashMap<FuncId, String>,
        threads: usize,
        failed: &[crate::pipeline::FailedFunction],
        obs: &crate::obs::Obs,
        codec: Codec,
    ) -> TwppArchive {
        let _s = obs.span("archive_encode");
        let mut w = ArchiveWriter::new(Vec::new(), &c.dcg, names)
            .expect("writing to an in-memory buffer cannot fail")
            .with_codec(codec);
        w.add_functions_observed(&c.functions, threads, obs)
            .expect("pipeline-produced blocks always encode");
        for ff in failed {
            w.add_failed_function(ff.func, ff.call_count);
        }
        let bytes = w
            .finish()
            .expect("writing to an in-memory buffer cannot fail");
        TwppArchive::from_bytes(bytes).expect("freshly encoded archive must parse")
    }

    /// Parses an archive, reading the header and function table and
    /// verifying every metadata checksum (v3). Function payload checksums
    /// are verified on access by [`TwppArchive::read_function`].
    ///
    /// # Errors
    ///
    /// Returns an [`ArchiveError`] for malformed input, including
    /// [`ArchiveError::NotCommitted`] for v3 archives whose write was
    /// interrupted (use [`TwppArchive::recover`] to salvage those).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<TwppArchive, ArchiveError> {
        let index = Index::parse(&bytes[..])?;
        Ok(TwppArchive { bytes, index })
    }

    /// Salvages whatever survives in a damaged (or perfectly healthy)
    /// archive. Every region whose checksum still verifies is kept; the
    /// result is a freshly encoded, fully committed v3 archive plus a
    /// [`RecoveryReport`] naming exactly what was lost and why.
    ///
    /// The salvage strategy, in order of preference:
    ///
    /// 1. **Footer path** — if the commit footer verifies, each table
    ///    entry's frame is checked and decoded individually; corrupt
    ///    frames are dropped, intact ones kept.
    /// 2. **Frame scan** — if the footer is missing or corrupt (e.g. an
    ///    interrupted write), the data section is scanned for `TWPR`
    ///    frame magics at 4-byte alignment; each candidate frame is
    ///    admitted only if its checksum verifies and its payload decodes.
    /// 3. A damaged header loses the DCG and name table (replaced by an
    ///    empty DCG and no names) but the frame scan still runs over the
    ///    whole buffer.
    ///
    /// v2 archives have no checksums; salvage decodes each table region
    /// and keeps the ones that parse, re-encoding the result as v3.
    ///
    /// # Errors
    ///
    /// Only totally unusable input errors: a missing `TWPA` magic, an
    /// unsupported version, or fewer than 8 bytes.
    pub fn recover(bytes: &[u8]) -> Result<(TwppArchive, RecoveryReport), ArchiveError> {
        TwppArchive::recover_with_threads(bytes, crate::par::default_threads())
    }

    /// Like [`TwppArchive::recover`] with an explicit worker count for the
    /// per-frame checksum verification and decode stage. The report and
    /// the rebuilt archive do not depend on `threads` — per-region
    /// verification is pure and verdicts are assembled in the same order
    /// the sequential walk would produce.
    ///
    /// # Errors
    ///
    /// Same as [`TwppArchive::recover`].
    pub fn recover_with_threads(
        bytes: &[u8],
        threads: usize,
    ) -> Result<(TwppArchive, RecoveryReport), ArchiveError> {
        TwppArchive::recover_observed(bytes, threads, &crate::obs::Obs::noop())
    }

    /// Like [`TwppArchive::recover_with_threads`], additionally
    /// recording an `fsck_verify` span and the
    /// `twpp_core_frames_crc_verified_total` /
    /// `twpp_core_frames_lost_total` counters derived from the recovery
    /// report. The report and rebuilt archive are identical either way.
    ///
    /// # Errors
    ///
    /// Same as [`TwppArchive::recover`].
    pub fn recover_observed(
        bytes: &[u8],
        threads: usize,
        obs: &crate::obs::Obs,
    ) -> Result<(TwppArchive, RecoveryReport), ArchiveError> {
        let result = {
            let _s = obs.span("fsck_verify");
            if bytes.len() < 8 {
                return Err(ArchiveError::Truncated);
            }
            if bytes[0..4] != MAGIC {
                return Err(ArchiveError::BadMagic);
            }
            match read_u32(&bytes[4..8]) {
                VERSION_V2 => recover_v2(bytes, threads),
                VERSION => recover_v3(bytes, threads),
                v => Err(ArchiveError::BadVersion(v)),
            }
        };
        if obs.is_enabled() {
            if let Ok((_, report)) = &result {
                obs.counter(
                    "twpp_core_frames_crc_verified_total",
                    "Function frames whose checksum verified and payload decoded",
                )
                .add(report.salvaged_functions() as u64);
                obs.counter(
                    "twpp_core_frames_lost_total",
                    "Function frames lost to damage during recovery",
                )
                .add(report.lost_functions() as u64);
            }
        }
        result
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total archive size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Container version of this archive (2 or 3).
    pub fn version(&self) -> u32 {
        self.index.version
    }

    /// Function ids present, most-frequently-called first. Degraded
    /// (failed) functions are not included; see
    /// [`TwppArchive::failed_functions`].
    pub fn function_ids(&self) -> Vec<FuncId> {
        self.index.function_ids()
    }

    /// Functions the writer recorded as failed during a degraded
    /// compaction run, as `(func, call_count)` pairs. Empty for archives
    /// produced by a clean run.
    pub fn failed_functions(&self) -> &[(FuncId, u32)] {
        self.index.failed_functions()
    }

    /// Whether this archive was produced by a degraded run (at least one
    /// function's compaction stage failed and was skipped).
    pub fn is_degraded(&self) -> bool {
        self.index.is_degraded()
    }

    /// The embedded name of `func` (live or degraded), if the archive
    /// stores names.
    pub fn function_name(&self, func: FuncId) -> Option<&str> {
        self.index.function_name(func)
    }

    /// Looks up a function id by its embedded name. Degraded functions
    /// resolve too; reading one reports [`ArchiveError::DegradedFunction`].
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.index.function_by_name(name)
    }

    /// The recorded call count of `func`, if present.
    pub fn call_count(&self, func: FuncId) -> Option<u64> {
        self.index.call_count(func)
    }

    /// Decodes the traces and dictionaries of one function, touching only
    /// that function's region — the fast path of Table 4. For v3 archives
    /// the region's checksum is verified before decoding.
    ///
    /// # Errors
    ///
    /// Returns [`ArchiveError::UnknownFunction`] for absent functions,
    /// [`ArchiveError::DegradedFunction`] for degraded ones, a
    /// [`ArchiveError::ChecksumMismatch`] for regions whose bytes rotted,
    /// or a decoding error for structurally corrupt regions.
    pub fn read_function(&self, func: FuncId) -> Result<FunctionRecord, ArchiveError> {
        self.index.read_frame(&self.bytes[..], self.index.entry(func)?)
    }

    /// Decompresses and decodes the dynamic call graph. Decoding is
    /// bounded: the decompressed stream is capped at
    /// [`MAX_DCG_RAW_BYTES`].
    ///
    /// # Errors
    ///
    /// Returns a decoding error for corrupt archives.
    pub fn read_dcg(&self) -> Result<Dcg, ArchiveError> {
        self.index.read_dcg()
    }

    /// Fully decodes the archive back into a [`CompactedTwpp`].
    ///
    /// # Errors
    ///
    /// Returns a decoding error for corrupt archives.
    pub fn to_compacted(&self) -> Result<CompactedTwpp, ArchiveError> {
        let dcg = self.read_dcg()?;
        let mut functions = Vec::with_capacity(self.index.table.len());
        for e in &self.index.table {
            functions.push(self.index.read_frame(&self.bytes[..], *e)?.into_block());
        }
        Ok(CompactedTwpp { dcg, functions })
    }

    /// Writes the archive to a file with the default durability
    /// ([`Durability::Flush`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &Path) -> Result<(), ArchiveError> {
        self.save_with(path, Durability::Flush)
    }

    /// Writes the archive to a file, then applies `durability` before
    /// returning — [`Durability::Sync`] fsyncs, so the commit marker
    /// [`ArchiveWriter::finish`] wrote is actually on stable storage when
    /// this returns.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_with(&self, path: &Path, durability: Durability) -> Result<(), ArchiveError> {
        let mut f = File::create(path)?;
        f.write_all(&self.bytes)?;
        durability.apply(&mut f)?;
        Ok(())
    }

    /// Loads a whole archive file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and format errors.
    pub fn load(path: &Path) -> Result<TwppArchive, ArchiveError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        TwppArchive::from_bytes(bytes)
    }

    /// Reads the traces of a single function **directly from a file**:
    /// parses and verifies the index (the metadata prefix with its DCG
    /// and name-table checksums, and for v3 the commit footer), then
    /// seeks to the function's region and decodes only those bytes. This
    /// is the exact experiment of Table 4's column C. Allocation is
    /// bounded by the file size before any declared count is trusted.
    ///
    /// # Errors
    ///
    /// Propagates I/O and format errors, exactly as
    /// [`TwppArchive::load`] followed by [`TwppArchive::read_function`]
    /// would report them.
    pub fn read_function_from_file(path: &Path, func: FuncId) -> Result<FunctionRecord, ArchiveError> {
        let file = Mutex::new(File::open(path)?);
        let index = Index::parse(&file)?;
        index.read_frame(&file, index.entry(func)?)
    }
}

/// Encodes a compacted TWPP in the **legacy v2 layout**. Retained so the
/// v2 decode path stays exercised and older readers can be fed.
///
/// # Errors
///
/// Returns [`ArchiveError::Trace`] if a timestamp set holds values the
/// wire encoding cannot represent (never the case for pipeline output).
pub fn encode_v2_named(
    c: &CompactedTwpp,
    names: &HashMap<FuncId, String>,
) -> Result<Vec<u8>, ArchiveError> {
    // Compress the DCG.
    let dcg_words = c.dcg.to_words();
    let dcg_bytes: Vec<u8> = dcg_words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let dcg_comp = lzw::compress(&dcg_bytes);
    let dcg_padded = dcg_comp.len().div_ceil(4) * 4;

    // Encode function regions.
    let mut regions: Vec<Vec<u32>> = Vec::with_capacity(c.functions.len());
    let mut table: Vec<TableEntry> = Vec::with_capacity(c.functions.len());
    let mut offset = 0u32;
    for fb in &c.functions {
        // v2 predates the codec tag: always the legacy encoding.
        let words = encode_region(fb, Codec::Legacy)?;
        let byte_len = (words.len() * 4) as u32;
        table.push(TableEntry {
            func: fb.func,
            call_count: u32::try_from(fb.call_count).unwrap_or(u32::MAX),
            n_dicts: fb.dicts.len() as u32,
            n_traces: fb.traces.len() as u32,
            offset,
            byte_len,
            crc: 0,
        });
        offset += byte_len;
        regions.push(words);
    }

    // Name table: per function (table order), a length-prefixed UTF-8
    // name; zero length means unnamed.
    let mut name_blob: Vec<u8> = Vec::new();
    if !names.is_empty() {
        for e in &table {
            let name = names.get(&e.func).cloned();
            let bytes = name.as_deref().unwrap_or("").as_bytes();
            name_blob.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            name_blob.extend_from_slice(bytes);
        }
        while !name_blob.len().is_multiple_of(4) {
            name_blob.push(0);
        }
    }

    // Assemble.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&MAGIC);
    push_u32(&mut bytes, VERSION_V2);
    push_u32(&mut bytes, c.functions.len() as u32);
    push_u32(&mut bytes, dcg_comp.len() as u32);
    push_u32(&mut bytes, name_blob.len() as u32);
    for e in &table {
        push_u32(&mut bytes, e.func.as_u32());
        push_u32(&mut bytes, e.call_count);
        push_u32(&mut bytes, e.n_dicts);
        push_u32(&mut bytes, e.n_traces);
        push_u32(&mut bytes, e.offset);
        push_u32(&mut bytes, e.byte_len);
    }
    bytes.extend_from_slice(&dcg_comp);
    bytes.resize(bytes.len() + (dcg_padded - dcg_comp.len()), 0);
    bytes.extend_from_slice(&name_blob);
    for words in &regions {
        for w in words {
            push_u32(&mut bytes, *w);
        }
    }
    Ok(bytes)
}

fn push_u32(bytes: &mut Vec<u8>, w: u32) {
    bytes.extend_from_slice(&w.to_le_bytes());
}

fn read_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

fn check_func_count(n_funcs: usize) -> Result<(), ArchiveError> {
    if n_funcs > MAX_FUNCTIONS {
        return Err(ArchiveError::TooLarge {
            what: "function count",
            declared: n_funcs as u64,
            limit: MAX_FUNCTIONS as u64,
        });
    }
    Ok(())
}

fn decode_dcg(comp: &[u8]) -> Result<Dcg, ArchiveError> {
    let raw = lzw::decompress_bounded(comp, MAX_DCG_RAW_BYTES)?;
    if !raw.len().is_multiple_of(4) {
        return Err(ArchiveError::Corrupt("DCG byte length"));
    }
    let words: Vec<u32> = raw
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Dcg::from_words(&words).ok_or(ArchiveError::Corrupt("DCG structure"))
}

// ---------------------------------------------------------------------------
// The strict reader: one index, parsed once from a byte source
// ---------------------------------------------------------------------------

/// Where a strict reader's archive bytes live: in memory (reads borrow)
/// or in an open file (reads seek and copy). [`Index::parse`] checks
/// every range it reads, and every frame range it records, against
/// [`Source::size`] before a read allocates for it.
pub(crate) trait Source {
    /// Total length in bytes.
    fn size(&self) -> Result<usize, ArchiveError>;
    /// The bytes in `at`.
    fn read(&self, at: Range<usize>) -> Result<Cow<'_, [u8]>, ArchiveError>;
}

impl Source for [u8] {
    fn size(&self) -> Result<usize, ArchiveError> {
        Ok(self.len())
    }

    fn read(&self, at: Range<usize>) -> Result<Cow<'_, [u8]>, ArchiveError> {
        self.get(at).map(Cow::Borrowed).ok_or(ArchiveError::Truncated)
    }
}

impl Source for Mutex<File> {
    fn size(&self) -> Result<usize, ArchiveError> {
        let len = lock_unpoisoned(self).metadata()?.len();
        usize::try_from(len).map_err(|_| ArchiveError::TooLarge {
            what: "archive size",
            declared: len,
            limit: usize::MAX as u64,
        })
    }

    fn read(&self, at: Range<usize>) -> Result<Cow<'_, [u8]>, ArchiveError> {
        let mut buf = vec![0u8; at.len()];
        let mut f = lock_unpoisoned(self);
        f.seek(SeekFrom::Start(at.start as u64))?;
        f.read_exact(&mut buf)?;
        Ok(Cow::Owned(buf))
    }
}

/// Recovers the guarded value even if another thread panicked while
/// holding the lock: a file is always sought before it is read, and the
/// caches guarded this way are read-mostly maps whose worst failure mode
/// after a poisoning panic is a redundant decode.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Region geometry of the metadata prefix `[0, data_start)`, computed
/// from the fixed header alone. v2: function table, compressed DCG
/// (padded to 4), name table. v3: compressed DCG (padded to 4) and name
/// table, each followed by its CRC.
struct Meta {
    dcg: Range<usize>,
    /// v3: where the DCG's CRC is stored.
    dcg_crc_at: usize,
    names: Range<usize>,
    /// v3: where the name table's CRC is stored.
    names_crc_at: usize,
    data_start: usize,
}

/// Computes the metadata geometry of an archive of `size` bytes from its
/// fixed header: for v3 after verifying the header CRC and the name
/// table's alignment, for v2 after capping the declared function count.
fn parse_meta(fixed: &[u8], size: usize) -> Result<Meta, ArchiveError> {
    let word = |i: usize| read_u32(&fixed[4 * i..4 * i + 4]);
    // (v2 table bytes, DCG bytes, name-table bytes, bytes of each CRC)
    let (table_len, dcg_len, names_len, crc_len) = match word(1) {
        VERSION_V2 => {
            check_func_count(word(2) as usize)?;
            (u64::from(word(2)) * V2_ENTRY_BYTES as u64, word(3), word(4), 0)
        }
        VERSION => {
            check_crc(fixed, "header", 0..16, 16)?;
            if !word(3).is_multiple_of(4) {
                return Err(ArchiveError::Corrupt("name table alignment"));
            }
            (0, word(2), word(3), 4)
        }
        v => return Err(ArchiveError::BadVersion(v)),
    };
    // Offsets in u64 cannot overflow: each term is below 2^34.
    let dcg_start = FIXED_HEADER_LEN as u64 + table_len;
    let dcg_crc_at = dcg_start + u64::from(dcg_len).next_multiple_of(4);
    let names_start = dcg_crc_at + crc_len;
    let names_crc_at = names_start + u64::from(names_len);
    let data_start = names_crc_at + crc_len;
    if data_start > size as u64 {
        return Err(ArchiveError::Truncated);
    }
    // Every offset is now at most `size`, so the casts are exact.
    let at = |x: u64| x as usize;
    Ok(Meta {
        dcg: at(dcg_start)..at(dcg_start) + dcg_len as usize,
        dcg_crc_at: at(dcg_crc_at),
        names: at(names_start)..at(names_crc_at),
        names_crc_at: at(names_crc_at),
        data_start: at(data_start),
    })
}

/// Verifies the CRC32 stored at `crc_at` over `bytes[body]`: the one
/// metadata checksum check (header, DCG, name table, footer). The caller
/// guarantees both ranges lie within `bytes`.
fn check_crc(
    bytes: &[u8],
    region: &'static str,
    body: Range<usize>,
    crc_at: usize,
) -> Result<(), ArchiveError> {
    let expected = read_u32(&bytes[crc_at..crc_at + 4]);
    let actual = crc32(&bytes[body]);
    if expected != actual {
        return Err(ArchiveError::ChecksumMismatch {
            region,
            expected,
            actual,
        });
    }
    Ok(())
}

/// Checks a v3 frame (`TWPR` header plus payload) against the CRC its
/// table entry records — the CRC covers the header fields and the
/// payload — and returns the payload. The one frame check: the strict
/// readers and recovery all call it.
fn check_frame(frame: &[u8], crc: u32) -> Result<&[u8], ArchiveError> {
    if frame.len() < FRAME_HEADER_LEN || frame[0..4] != FRAME_MAGIC {
        return Err(ArchiveError::Corrupt("frame magic"));
    }
    let mut h = Crc32::new();
    h.update(&frame[4..24]);
    h.update(&frame[FRAME_HEADER_LEN..]);
    let actual = h.finalize();
    if actual != crc {
        return Err(ArchiveError::ChecksumMismatch {
            region: "function region",
            expected: crc,
            actual,
        });
    }
    Ok(&frame[FRAME_HEADER_LEN..])
}

/// `len` bytes at `offset` into a data section starting at `data_start`;
/// `None` on overflow.
fn span_at(data_start: usize, offset: u32, len: usize) -> Option<Range<usize>> {
    let start = data_start.checked_add(offset as usize)?;
    Some(start..start.checked_add(len)?)
}

/// Decodes one function-table entry: seven words in a v3 footer, six (no
/// CRC) in a v2 header.
fn table_entry(chunk: &[u8]) -> TableEntry {
    let word = |i: usize| read_u32(&chunk[4 * i..4 * i + 4]);
    TableEntry {
        func: FuncId::from_u32(word(0)),
        call_count: word(1),
        n_dicts: word(2),
        n_traces: word(3),
        offset: word(4),
        byte_len: word(5),
        crc: if chunk.len() == FOOTER_ENTRY_BYTES { word(6) } else { 0 },
    }
}

/// Parses the v2 function table and name table from the metadata
/// prefix. The name table holds, per table entry, a length-prefixed
/// UTF-8 name, empty when unnamed; an empty blob names nothing.
fn parse_table_v2(
    prefix: &[u8],
    meta: &Meta,
) -> Result<(Vec<TableEntry>, HashMap<FuncId, String>), ArchiveError> {
    let table: Vec<TableEntry> = prefix[FIXED_HEADER_LEN..meta.dcg.start]
        .chunks_exact(V2_ENTRY_BYTES)
        .map(table_entry)
        .collect();
    let blob = &prefix[meta.names.clone()];
    let mut names = HashMap::new();
    if blob.is_empty() {
        return Ok((table, names));
    }
    let mut pos = 0usize;
    for e in &table {
        if pos + 4 > blob.len() {
            return Err(ArchiveError::Corrupt("name table"));
        }
        let len = read_u32(&blob[pos..pos + 4]) as usize;
        pos += 4;
        if len > blob.len() - pos {
            return Err(ArchiveError::Corrupt("name table"));
        }
        let name = std::str::from_utf8(&blob[pos..pos + len])
            .map_err(|_| ArchiveError::Corrupt("name table utf-8"))?;
        pos += len;
        if !name.is_empty() {
            names.insert(e.func, name.to_owned());
        }
    }
    Ok((table, names))
}

/// Encodes the v3 keyed name table: `count, (func_id, len, utf8)…`,
/// zero-padded to 4 bytes. An empty map encodes as an empty blob.
fn encode_names_v3(names: &HashMap<FuncId, String>) -> Vec<u8> {
    if names.is_empty() {
        return Vec::new();
    }
    let mut entries: Vec<(&FuncId, &String)> = names.iter().collect();
    entries.sort_by_key(|(f, _)| **f);
    let mut blob = Vec::new();
    push_u32(&mut blob, entries.len() as u32);
    for (func, name) in entries {
        push_u32(&mut blob, func.as_u32());
        push_u32(&mut blob, name.len() as u32);
        blob.extend_from_slice(name.as_bytes());
    }
    while !blob.len().is_multiple_of(4) {
        blob.push(0);
    }
    blob
}

/// Parses the v3 keyed name table into a map.
fn parse_names_v3(blob: &[u8]) -> Result<HashMap<FuncId, String>, ArchiveError> {
    let mut map = HashMap::new();
    if blob.is_empty() {
        return Ok(map);
    }
    if blob.len() < 4 {
        return Err(ArchiveError::Corrupt("name table"));
    }
    let count = read_u32(&blob[0..4]) as usize;
    // Each entry takes at least 8 bytes: cross-check the declared count
    // against the blob before trusting it.
    if count > (blob.len() - 4) / 8 {
        return Err(ArchiveError::TooLarge {
            what: "name count",
            declared: count as u64,
            limit: ((blob.len() - 4) / 8) as u64,
        });
    }
    let mut pos = 4usize;
    for _ in 0..count {
        if pos + 8 > blob.len() {
            return Err(ArchiveError::Corrupt("name table"));
        }
        let func = FuncId::from_u32(read_u32(&blob[pos..pos + 4]));
        let len = read_u32(&blob[pos + 4..pos + 8]) as usize;
        pos += 8;
        if len > blob.len() - pos {
            return Err(ArchiveError::Corrupt("name table"));
        }
        let name = std::str::from_utf8(&blob[pos..pos + len])
            .map_err(|_| ArchiveError::Corrupt("name table utf-8"))?;
        pos += len;
        if !name.is_empty() {
            map.insert(func, name.to_owned());
        }
    }
    Ok(map)
}

/// Locates and verifies the commit footer of a v3 archive of `size`
/// bytes whose data section starts at `data_start`: commit marker, count
/// cap, footer CRC and the data-length cross-check. Returns every entry,
/// degraded sentinels included, and the footer's start (= end of the
/// data section).
fn parse_footer_v3<S: Source + ?Sized>(
    src: &S,
    size: usize,
    data_start: usize,
) -> Result<(Vec<TableEntry>, usize), ArchiveError> {
    if size - data_start < FOOTER_FIXED_LEN {
        return Err(ArchiveError::Truncated);
    }
    let tail = src.read(size - 16..size)?;
    if tail[12..16] != COMMIT_MAGIC {
        return Err(ArchiveError::NotCommitted);
    }
    let n_funcs = read_u32(&tail[0..4]) as usize;
    let data_len = read_u32(&tail[4..8]) as usize;
    check_func_count(n_funcs)?;
    let footer_len = 4 + n_funcs * FOOTER_ENTRY_BYTES + 16;
    if footer_len > size - data_start {
        return Err(ArchiveError::Truncated);
    }
    let footer_start = size - footer_len;
    let footer = src.read(footer_start..size)?;
    if footer[0..4] != FOOTER_MAGIC {
        return Err(ArchiveError::Corrupt("footer magic"));
    }
    check_crc(&footer, "footer", 0..footer_len - 8, footer_len - 8)?;
    if footer_start - data_start != data_len {
        return Err(ArchiveError::Corrupt("footer data length"));
    }
    let entries = footer[4..footer_len - 16]
        .chunks_exact(FOOTER_ENTRY_BYTES)
        .map(table_entry)
        .collect();
    Ok((entries, footer_start))
}

/// The validated index of an archive, parsed once by [`Index::parse`]
/// from any [`Source`] and shared by every strict reader:
/// [`TwppArchive`], [`crate::lazy::LazyArchive`] and
/// [`TwppArchive::read_function_from_file`]. Everything in it was checked
/// at parse: for v3 the header, DCG, name-table and footer CRCs, the
/// commit marker and the footer's data length; for both versions the
/// function-count cap and every frame's bounds.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Index {
    version: u32,
    /// Live entries in footer order (most-called first).
    table: Vec<TableEntry>,
    /// Position of each live function in `table`.
    positions: HashMap<FuncId, usize>,
    /// Degraded-function sentinels, `(func, call_count)`, in footer order.
    failed: Vec<(FuncId, u32)>,
    /// Embedded names of the listed functions, live or degraded.
    names: HashMap<FuncId, String>,
    /// The compressed DCG.
    dcg: Vec<u8>,
    /// Offset of the data section (v3 frames, v2 raw regions).
    data_start: usize,
}

impl Index {
    /// Parses and validates the index of the archive in `src`: the fixed
    /// header, the metadata prefix and, for v3, the commit footer. No
    /// frame is read.
    pub(crate) fn parse<S: Source + ?Sized>(src: &S) -> Result<Index, ArchiveError> {
        let size = src.size()?;
        if size < FIXED_HEADER_LEN {
            return Err(ArchiveError::Truncated);
        }
        let fixed = src.read(0..FIXED_HEADER_LEN)?;
        if fixed[0..4] != MAGIC {
            return Err(ArchiveError::BadMagic);
        }
        let version = read_u32(&fixed[4..8]);
        let meta = parse_meta(&fixed, size)?;
        let prefix = src.read(0..meta.data_start)?;
        let (entries, mut names, data_end) = if version == VERSION {
            check_crc(&prefix, "dcg", meta.dcg.clone(), meta.dcg_crc_at)?;
            check_crc(&prefix, "name table", meta.names.clone(), meta.names_crc_at)?;
            let names = parse_names_v3(&prefix[meta.names.clone()])?;
            let (entries, footer_start) = parse_footer_v3(src, size, meta.data_start)?;
            (entries, names, footer_start)
        } else {
            let (entries, names) = parse_table_v2(&prefix, &meta)?;
            (entries, names, size)
        };
        let mut index = Index {
            version,
            table: Vec::with_capacity(entries.len()),
            positions: HashMap::new(),
            failed: Vec::new(),
            names: HashMap::new(),
            dcg: prefix[meta.dcg].to_vec(),
            data_start: meta.data_start,
        };
        for e in entries {
            if version == VERSION && e.is_sentinel() {
                index.failed.push((e.func, e.call_count));
            } else if index.frame_span(&e).is_some_and(|s| s.end <= data_end) {
                index.table.push(e);
            } else {
                return Err(ArchiveError::Truncated);
            }
        }
        index.positions = index.table.iter().enumerate().map(|(i, e)| (e.func, i)).collect();
        names.retain(|f, _| {
            index.positions.contains_key(f) || index.failed.iter().any(|&(g, _)| g == *f)
        });
        index.names = names;
        Ok(index)
    }

    /// Live function ids in footer order, most-called first.
    pub(crate) fn function_ids(&self) -> Vec<FuncId> {
        self.table.iter().map(|e| e.func).collect()
    }

    /// Number of live functions.
    pub(crate) fn function_count(&self) -> usize {
        self.table.len()
    }

    /// Degraded-function sentinels as `(func, call_count)`.
    pub(crate) fn failed_functions(&self) -> &[(FuncId, u32)] {
        &self.failed
    }

    /// Whether the archive lists at least one degraded function.
    pub(crate) fn is_degraded(&self) -> bool {
        !self.failed.is_empty()
    }

    /// The embedded name of a listed function, live or degraded.
    pub(crate) fn function_name(&self, func: FuncId) -> Option<&str> {
        self.names.get(&func).map(String::as_str)
    }

    /// The first listed function, in footer order and degraded ones
    /// included, whose embedded name is `name`.
    pub(crate) fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.table
            .iter()
            .map(|e| e.func)
            .chain(self.failed.iter().map(|&(f, _)| f))
            .find(|&f| self.function_name(f) == Some(name))
    }

    /// The recorded call count of a live function.
    pub(crate) fn call_count(&self, func: FuncId) -> Option<u64> {
        self.entry(func).ok().map(|e| u64::from(e.call_count))
    }

    /// Decompresses and decodes the dynamic call graph.
    pub(crate) fn read_dcg(&self) -> Result<Dcg, ArchiveError> {
        decode_dcg(&self.dcg)
    }

    /// The table entry of a live function;
    /// [`ArchiveError::DegradedFunction`] or
    /// [`ArchiveError::UnknownFunction`] otherwise.
    pub(crate) fn entry(&self, func: FuncId) -> Result<TableEntry, ArchiveError> {
        match self.positions.get(&func) {
            Some(&i) => Ok(self.table[i]),
            None if self.failed.iter().any(|&(f, _)| f == func) => {
                Err(ArchiveError::DegradedFunction(func))
            }
            None => Err(ArchiveError::UnknownFunction(func)),
        }
    }

    /// Bytes a read of `e`'s frame fetches: the v3 frame header plus the
    /// payload, or the bare v2 region.
    pub(crate) fn frame_len(&self, e: &TableEntry) -> usize {
        let header = if self.version == VERSION { FRAME_HEADER_LEN } else { 0 };
        header + e.byte_len as usize
    }

    fn frame_span(&self, e: &TableEntry) -> Option<Range<usize>> {
        span_at(self.data_start, e.offset, self.frame_len(e))
    }

    /// Reads `e`'s frame from `src`, checks it (v3) and decodes it.
    pub(crate) fn read_frame<S: Source + ?Sized>(
        &self,
        src: &S,
        e: TableEntry,
    ) -> Result<FunctionRecord, ArchiveError> {
        let frame = src.read(self.frame_span(&e).ok_or(ArchiveError::Truncated)?)?;
        let payload = if self.version == VERSION {
            check_frame(&frame, e.crc)?
        } else {
            &frame
        };
        decode_region(e, payload)
    }
}

// ---------------------------------------------------------------------------
// Salvage
// ---------------------------------------------------------------------------

/// Recovery's verdict on one frame: the shared frame check, then the
/// decode, with each failure mapped to a [`RegionStatus`].
fn salvage_frame(frame: &[u8], e: TableEntry) -> (RegionStatus, Option<FunctionRecord>) {
    let Ok(payload) = check_frame(frame, e.crc) else {
        return (RegionStatus::BadChecksum, None);
    };
    match decode_region(e, payload) {
        Ok(r) => (RegionStatus::Ok, Some(r)),
        Err(err) => (RegionStatus::Undecodable(err.to_string()), None),
    }
}

/// One verified frame candidate from the recovery scan: the verdict the
/// sequential walk would emit if it stops at this offset, the decoded
/// record (for `Ok` frames), and how far the walk advances afterwards.
struct FrameCandidate {
    verdict: FunctionVerdict,
    record: Option<FunctionRecord>,
    advance: usize,
}

/// Verifies one `TWPR` candidate at `pos` — pure per offset, so candidates
/// can be checked on worker threads. The caller guarantees
/// `bytes[pos..pos + 4] == FRAME_MAGIC` and a full header fits.
fn verify_frame_candidate(bytes: &[u8], pos: usize) -> FrameCandidate {
    let func = FuncId::from_u32(read_u32(&bytes[pos + 4..pos + 8]));
    let payload_len = read_u32(&bytes[pos + 20..pos + 24]) as usize;
    let verdict = |status: RegionStatus| FunctionVerdict {
        func,
        offset: pos,
        byte_len: payload_len,
        status,
    };
    let sane = payload_len.is_multiple_of(4) && payload_len <= bytes.len() - pos - FRAME_HEADER_LEN;
    if !sane {
        return FrameCandidate {
            verdict: verdict(RegionStatus::Truncated),
            record: None,
            advance: 4,
        };
    }
    let e = TableEntry {
        func,
        call_count: read_u32(&bytes[pos + 8..pos + 12]),
        n_dicts: read_u32(&bytes[pos + 12..pos + 16]),
        n_traces: read_u32(&bytes[pos + 16..pos + 20]),
        offset: 0,
        byte_len: payload_len as u32,
        crc: read_u32(&bytes[pos + 24..pos + 28]),
    };
    let (status, record) = salvage_frame(&bytes[pos..pos + FRAME_HEADER_LEN + payload_len], e);
    // A frame that fails its checksum may be a stray magic: resync one
    // word on. A checked frame is skipped whole, decodable or not.
    let advance = if status == RegionStatus::BadChecksum {
        4
    } else {
        FRAME_HEADER_LEN + payload_len
    };
    FrameCandidate {
        verdict: verdict(status),
        record,
        advance,
    }
}

/// Scans `bytes[from..]` for intact frames at 4-byte alignment; used when
/// the footer is missing or corrupt. Each candidate frame must pass its
/// checksum to be admitted, so a corrupted frame causes a resync rather
/// than garbage.
///
/// Candidate verification (checksum + decode) is pure per offset and fans
/// across up to `threads` workers; a sequential resync walk then consumes
/// the precomputed results, so the verdict list and record order are
/// byte-identical to a single-threaded scan.
fn scan_frames(
    bytes: &[u8],
    from: usize,
    threads: usize,
) -> (Vec<FunctionVerdict>, Vec<FunctionRecord>) {
    let start = from.div_ceil(4) * 4;
    // Phase 1: find every aligned `TWPR` magic with room for a header.
    let mut candidates: Vec<usize> = Vec::new();
    let mut pos = start;
    while pos + FRAME_HEADER_LEN <= bytes.len() {
        if bytes[pos..pos + 4] == FRAME_MAGIC {
            candidates.push(pos);
        }
        pos += 4;
    }
    // Phase 2: verify + decode candidates in parallel (pure per offset).
    let mut verified =
        crate::par::map_indexed(&candidates, threads, |_, &p| verify_frame_candidate(bytes, p));
    let index_of: HashMap<usize, usize> =
        candidates.iter().enumerate().map(|(i, &p)| (p, i)).collect();
    // Phase 3: the sequential resync walk. Frame advances are multiples
    // of 4 (header is 28 bytes, payloads are word-aligned), so the walk
    // only ever lands on aligned offsets covered by phase 1.
    let mut verdicts = Vec::new();
    let mut records = Vec::new();
    let mut pos = start;
    while pos + FRAME_HEADER_LEN <= bytes.len() {
        let Some(&i) = index_of.get(&pos) else {
            pos += 4;
            continue;
        };
        let c = &mut verified[i];
        verdicts.push(c.verdict.clone());
        if let Some(r) = c.record.take() {
            records.push(r);
        }
        pos += c.advance;
    }
    (verdicts, records)
}

/// Re-encodes salvaged pieces as a fresh, committed v3 archive.
/// Degraded-function sentinels present in the damaged input are
/// preserved, so salvage never silently forgets what a degraded run
/// already reported as lost.
fn rebuild(
    dcg: Dcg,
    names: &HashMap<FuncId, String>,
    records: Vec<FunctionRecord>,
    failed: &[(FuncId, u32)],
) -> TwppArchive {
    let mut seen = HashSet::new();
    let mut w = ArchiveWriter::new(Vec::new(), &dcg, names)
        .expect("writing to an in-memory buffer cannot fail");
    for r in records {
        if seen.insert(r.func) {
            // Decoded records always re-encode: their trace lengths were
            // bounded by `MAX_DECODED_LEN` (< i32::MAX) during salvage.
            w.add_function(&r.into_block())
                .expect("salvaged records always re-encode");
        }
    }
    for &(func, call_count) in failed {
        if seen.insert(func) {
            w.add_failed_function(func, u64::from(call_count));
        }
    }
    let bytes = w
        .finish()
        .expect("writing to an in-memory buffer cannot fail");
    TwppArchive::from_bytes(bytes).expect("rebuilt archive must parse")
}

fn recover_v3(bytes: &[u8], threads: usize) -> Result<(TwppArchive, RecoveryReport), ArchiveError> {
    let mut report = RecoveryReport {
        version: VERSION,
        total_bytes: bytes.len(),
        header_ok: false,
        dcg_ok: false,
        names_ok: false,
        committed: false,
        salvaged_bytes: 0,
        // Refined below: header parse upgrades to FrameScan, a verified
        // footer to Footer.
        strategy: SalvageStrategy::HeaderlessScan,
        functions: Vec::new(),
    };
    let mut dcg = Dcg::empty();
    let mut names: HashMap<FuncId, String> = HashMap::new();
    let mut scan_from = FIXED_HEADER_LEN.min(bytes.len());
    let mut data_start = scan_from;
    let mut footer_table: Option<(Vec<TableEntry>, usize)> = None;

    if bytes.len() >= FIXED_HEADER_LEN {
        if let Ok(meta) = parse_meta(bytes, bytes.len()) {
            report.header_ok = true;
            report.strategy = SalvageStrategy::FrameScan;
            data_start = meta.data_start;
            scan_from = meta.data_start;
            // DCG and names: checksum, then decode.
            if check_crc(bytes, "dcg", meta.dcg.clone(), meta.dcg_crc_at).is_ok() {
                if let Ok(d) = decode_dcg(&bytes[meta.dcg.clone()]) {
                    dcg = d;
                    report.dcg_ok = true;
                    report.salvaged_bytes += meta.dcg.len();
                }
            }
            if check_crc(bytes, "name table", meta.names.clone(), meta.names_crc_at).is_ok() {
                if let Ok(map) = parse_names_v3(&bytes[meta.names.clone()]) {
                    names = map;
                    report.names_ok = true;
                    report.salvaged_bytes += meta.names.len();
                }
            }
            footer_table = parse_footer_v3(bytes, bytes.len(), meta.data_start).ok();
        }
    }

    let mut failed: Vec<(FuncId, u32)> = Vec::new();
    let records = match footer_table {
        Some((table, footer_start)) => {
            report.committed = true;
            report.strategy = SalvageStrategy::Footer;
            // Per-entry verification is pure: fan the checksum + decode
            // work across workers, then fold verdicts in table order so
            // the report matches the sequential walk exactly. Degraded
            // sentinels have no frame: they get a FailedAtCompaction
            // verdict instead of being mistaken for truncation.
            let checked = crate::par::map_indexed(&table, threads, |_, &e| {
                if e.is_sentinel() {
                    (RegionStatus::FailedAtCompaction, None)
                } else {
                    let span = span_at(data_start, e.offset, FRAME_HEADER_LEN + e.byte_len as usize)
                        .filter(|s| s.end <= footer_start);
                    match span {
                        Some(s) => salvage_frame(&bytes[s], e),
                        None => (RegionStatus::Truncated, None),
                    }
                }
            });
            let mut records = Vec::new();
            for (e, (status, record)) in table.iter().zip(checked) {
                if let Some(r) = record {
                    report.salvaged_bytes += e.byte_len as usize;
                    records.push(r);
                }
                if e.is_sentinel() {
                    failed.push((e.func, e.call_count));
                    report.functions.push(FunctionVerdict {
                        func: e.func,
                        offset: 0,
                        byte_len: 0,
                        status,
                    });
                } else {
                    report.functions.push(FunctionVerdict {
                        func: e.func,
                        offset: data_start + e.offset as usize,
                        byte_len: e.byte_len as usize,
                        status,
                    });
                }
            }
            records
        }
        None => {
            let (verdicts, records) = scan_frames(bytes, scan_from, threads);
            report.salvaged_bytes += verdicts
                .iter()
                .filter(|v| v.status.is_ok())
                .map(|v| v.byte_len)
                .sum::<usize>();
            report.functions = verdicts;
            records
        }
    };

    Ok((rebuild(dcg, &names, records, &failed), report))
}

fn recover_v2(bytes: &[u8], threads: usize) -> Result<(TwppArchive, RecoveryReport), ArchiveError> {
    let meta = parse_meta(bytes.get(..FIXED_HEADER_LEN).ok_or(ArchiveError::Truncated)?, bytes.len())?;
    let (table, names) = parse_table_v2(bytes, &meta)?;
    let data_start = meta.data_start;
    let mut report = RecoveryReport {
        version: VERSION_V2,
        total_bytes: bytes.len(),
        header_ok: true,
        dcg_ok: false,
        names_ok: true,
        committed: true,
        salvaged_bytes: 0,
        strategy: SalvageStrategy::V2Decode,
        functions: Vec::new(),
    };
    // v2 has no checksums: salvage by decoding.
    let mut dcg = Dcg::empty();
    if let Ok(d) = decode_dcg(&bytes[meta.dcg.clone()]) {
        dcg = d;
        report.dcg_ok = true;
        report.salvaged_bytes += meta.dcg.len();
    }
    // v2 regions are independent: decode them in parallel, then fold the
    // verdicts in table order.
    let decoded = crate::par::map_indexed(&table, threads, |_, e| {
        let region = span_at(data_start, e.offset, e.byte_len as usize).and_then(|s| bytes.get(s));
        match region.map(|r| decode_region(*e, r)) {
            None => (RegionStatus::Truncated, None),
            Some(Ok(r)) => (RegionStatus::Ok, Some(r)),
            Some(Err(err)) => (RegionStatus::Undecodable(err.to_string()), None),
        }
    });
    let mut records = Vec::new();
    for (e, (status, record)) in table.iter().zip(decoded) {
        if let Some(r) = record {
            report.salvaged_bytes += e.byte_len as usize;
            records.push(r);
        }
        report.functions.push(FunctionVerdict {
            func: e.func,
            offset: data_start + e.offset as usize,
            byte_len: e.byte_len as usize,
            status,
        });
    }
    Ok((rebuild(dcg, &names, records, &[]), report))
}

// ---------------------------------------------------------------------------
// Region codec (shared by v2 and v3)
// ---------------------------------------------------------------------------

/// Encodes one function's region:
/// dictionaries (`n_chains, (head, len, blocks…)*` each) followed by traces
/// (`dict_idx` + timestamped words each).
///
/// Fails only when a timestamped trace holds timestamps outside the wire
/// encoding's `i32` domain — impossible for pipeline-produced blocks,
/// whose trace lengths are asserted `<= i32::MAX` at construction.
fn encode_region(fb: &FunctionBlock, codec: Codec) -> Result<Vec<u32>, ArchiveError> {
    let mut words = Vec::new();
    for dict in &fb.dicts {
        words.push(dict.len() as u32);
        for (head, chain) in dict.iter() {
            words.push(head.as_u32());
            words.push(chain.len() as u32);
            words.extend(chain.iter().map(|b| b.as_u32()));
        }
    }
    for (dict_idx, tt) in &fb.traces {
        words.push(*dict_idx);
        words.extend(tt.to_words_with(codec)?);
    }
    Ok(words)
}

fn decode_region(e: TableEntry, region: &[u8]) -> Result<FunctionRecord, ArchiveError> {
    if !region.len().is_multiple_of(4) {
        return Err(ArchiveError::Corrupt("region length"));
    }
    let words: Vec<u32> = region
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let mut pos = 0usize;
    let take = |pos: &mut usize| -> Result<u32, ArchiveError> {
        let w = *words.get(*pos).ok_or(ArchiveError::Truncated)?;
        *pos += 1;
        Ok(w)
    };
    // Counts come from the (possibly corrupted) header: clamp every
    // pre-allocation to what the region could actually hold.
    let cap = |n: usize| n.min(words.len() + 1);
    let mut dicts = Vec::with_capacity(cap(e.n_dicts as usize));
    for _ in 0..e.n_dicts {
        let n_chains = take(&mut pos)?;
        let mut chains = Vec::with_capacity(cap(n_chains as usize));
        for _ in 0..n_chains {
            let head = take(&mut pos)?;
            let len = take(&mut pos)? as usize;
            if len < 2 {
                return Err(ArchiveError::Corrupt("chain too short"));
            }
            let mut chain = Vec::with_capacity(cap(len));
            for _ in 0..len {
                let b = take(&mut pos)?;
                if b == 0 {
                    return Err(ArchiveError::Corrupt("zero block id"));
                }
                chain.push(BlockId::new(b));
            }
            if head == 0 || chain[0].as_u32() != head {
                return Err(ArchiveError::Corrupt("chain head mismatch"));
            }
            chains.push(chain);
        }
        dicts.push(DbbDictionary::from_chains(chains));
    }
    let mut traces = Vec::with_capacity(cap(e.n_traces as usize));
    for _ in 0..e.n_traces {
        let dict_idx = take(&mut pos)?;
        if dict_idx as usize >= dicts.len() {
            return Err(ArchiveError::Corrupt("dictionary index"));
        }
        let tt = TimestampedTrace::from_words(&words, &mut pos)?;
        traces.push((dict_idx, tt));
    }
    if pos != words.len() {
        return Err(ArchiveError::Corrupt("trailing region bytes"));
    }
    Ok(FunctionRecord {
        func: e.func,
        call_count: u64::from(e.call_count),
        dicts,
        traces,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pipeline::compact;
    use twpp_tracer::{RawWpp, WppEvent};

    fn f(i: usize) -> FuncId {
        FuncId::from_index(i)
    }

    fn sample_wpp() -> RawWpp {
        let t1: Vec<u32> = vec![1, 2, 3, 4, 5, 6, 2, 3, 4, 5, 6, 10];
        let t2: Vec<u32> = vec![1, 2, 7, 8, 9, 6, 10];
        let calls = [&t1, &t2, &t1, &t1];
        let mut events = vec![WppEvent::Enter(f(0)), WppEvent::Block(BlockId::new(1))];
        for t in calls {
            events.push(WppEvent::Enter(f(1)));
            for &x in t.iter() {
                events.push(WppEvent::Block(BlockId::new(x)));
            }
            events.push(WppEvent::Exit);
        }
        events.push(WppEvent::Block(BlockId::new(2)));
        events.push(WppEvent::Exit);
        RawWpp::from_events(&events)
    }

    fn sample_names() -> HashMap<FuncId, String> {
        let mut names = HashMap::new();
        names.insert(f(0), "main".to_owned());
        names.insert(f(1), "helper".to_owned());
        names
    }

    #[test]
    fn archive_round_trip() {
        let c = compact(&sample_wpp()).unwrap();
        let a = TwppArchive::from_compacted(&c);
        assert_eq!(a.version(), VERSION);
        let b = TwppArchive::from_bytes(a.as_bytes().to_vec()).unwrap();
        assert_eq!(b.to_compacted().unwrap(), c);
        assert_eq!(b.read_dcg().unwrap(), c.dcg);
    }

    #[test]
    fn adaptive_archive_round_trips_and_never_grows() {
        let c = compact(&sample_wpp()).unwrap();
        let names = sample_names();
        let legacy =
            TwppArchive::from_compacted_codec(&c, &names, 1, &[], &crate::obs::Obs::noop(), Codec::Legacy);
        let adaptive = TwppArchive::from_compacted_codec(
            &c,
            &names,
            1,
            &[],
            &crate::obs::Obs::noop(),
            Codec::Adaptive,
        );
        // The explicit-legacy constructor is byte-identical to the default.
        assert_eq!(legacy.as_bytes(), TwppArchive::from_compacted_named(&c, &names).as_bytes());
        // Adaptive decodes to the same compacted TWPP and never costs bytes.
        assert_eq!(adaptive.to_compacted().unwrap(), c);
        assert!(adaptive.byte_len() <= legacy.byte_len());
        for func in legacy.function_ids() {
            assert_eq!(
                adaptive.read_function(func).unwrap(),
                legacy.read_function(func).unwrap()
            );
        }
        // Salvage understands adaptive frames (codec handled below the
        // frame layer).
        let (recovered, report) = TwppArchive::recover(adaptive.as_bytes()).unwrap();
        assert!(report.functions.iter().all(|v| v.status.is_ok()));
        assert_eq!(recovered.to_compacted().unwrap(), c);
    }

    #[test]
    fn per_function_read_matches_raw_scan() {
        let wpp = sample_wpp();
        let c = compact(&wpp).unwrap();
        let a = TwppArchive::from_compacted(&c);
        let record = a.read_function(f(1)).unwrap();
        assert_eq!(record.call_count, 4);
        // The unique traces recoverable from the archive must equal the
        // unique traces a full scan finds.
        let mut scanned: Vec<Vec<BlockId>> = wpp.scan_function(f(1));
        scanned.dedup();
        scanned.sort();
        let mut expanded: Vec<Vec<BlockId>> = record
            .expanded_traces()
            .into_iter()
            .map(Vec::from)
            .collect();
        expanded.sort();
        scanned.dedup();
        assert_eq!(expanded, scanned);
    }

    #[test]
    fn unknown_function_is_reported() {
        let c = compact(&sample_wpp()).unwrap();
        let a = TwppArchive::from_compacted(&c);
        assert!(matches!(
            a.read_function(f(7)),
            Err(ArchiveError::UnknownFunction(_))
        ));
    }

    #[test]
    fn degraded_archive_round_trips_survivors_and_reports_failed() {
        let mut c = compact(&sample_wpp()).unwrap();
        // Pretend f(1)'s compaction stage failed: drop its block and
        // record the failure as the governed pipeline would.
        let pos = c.functions.iter().position(|fb| fb.func == f(1)).unwrap();
        let dropped = c.functions.remove(pos);
        let failed = vec![crate::pipeline::FailedFunction {
            func: dropped.func,
            call_count: dropped.call_count,
            stage: "compact",
            reason: "injected".to_owned(),
        }];
        let a = TwppArchive::from_compacted_governed(&c, &sample_names(), 2, &failed);
        assert!(a.is_degraded());
        assert_eq!(a.failed_functions(), &[(f(1), 4)]);
        // The survivor decodes; the failed function yields the typed error.
        assert!(a.read_function(f(0)).is_ok());
        assert!(matches!(
            a.read_function(f(1)),
            Err(ArchiveError::DegradedFunction(id)) if id == f(1)
        ));
        // Re-parsing the bytes preserves the split.
        let b = TwppArchive::from_bytes(a.as_bytes().to_vec()).unwrap();
        assert_eq!(b.failed_functions(), &[(f(1), 4)]);
        assert_eq!(b.function_ids(), vec![f(0)]);
        // fsck over the degraded archive: intact modulo the reported
        // function, and the sentinel survives the rebuild.
        let (rebuilt, report) = TwppArchive::recover(a.as_bytes()).unwrap();
        assert!(!report.is_clean());
        assert!(report.is_degraded_only());
        assert_eq!(report.degraded_functions(), vec![f(1)]);
        assert_eq!(rebuilt.failed_functions(), &[(f(1), 4)]);
        // File-based single-function read reports the degraded function.
        let dir = std::env::temp_dir().join("twpp-degraded-archive-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("degraded.twpa");
        a.save(&path).unwrap();
        assert!(TwppArchive::read_function_from_file(&path, f(0)).is_ok());
        assert!(matches!(
            TwppArchive::read_function_from_file(&path, f(1)),
            Err(ArchiveError::DegradedFunction(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn governed_encode_with_no_failures_is_byte_identical() {
        let c = compact(&sample_wpp()).unwrap();
        let plain = TwppArchive::from_compacted_named_with_threads(&c, &sample_names(), 2);
        let governed = TwppArchive::from_compacted_governed(&c, &sample_names(), 2, &[]);
        assert_eq!(plain.as_bytes(), governed.as_bytes());
        assert!(!governed.is_degraded());
    }

    #[test]
    fn layout_orders_most_called_first() {
        let c = compact(&sample_wpp()).unwrap();
        let a = TwppArchive::from_compacted(&c);
        assert_eq!(a.function_ids(), vec![f(1), f(0)]);
        assert_eq!(a.call_count(f(1)), Some(4));
        assert_eq!(a.call_count(f(9)), None);
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicking() {
        let c = compact(&sample_wpp()).unwrap();
        let a = TwppArchive::from_compacted(&c);
        let bytes = a.as_bytes();
        assert!(matches!(
            TwppArchive::from_bytes(b"XXXX123".to_vec()),
            Err(ArchiveError::BadMagic) | Err(ArchiveError::Truncated)
        ));
        // Truncations anywhere must error, not panic.
        for cut in [4usize, 12, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(TwppArchive::from_bytes(bytes[..cut.min(bytes.len())].to_vec()).is_err());
        }
    }

    #[test]
    fn named_archives_store_and_look_up_names() {
        let c = compact(&sample_wpp()).unwrap();
        let a = TwppArchive::from_compacted_named(&c, &sample_names());
        assert_eq!(a.function_name(f(0)), Some("main"));
        assert_eq!(a.function_name(f(1)), Some("helper"));
        assert_eq!(a.function_by_name("helper"), Some(f(1)));
        assert_eq!(a.function_by_name("nope"), None);
        // Names survive the byte round trip.
        let b = TwppArchive::from_bytes(a.as_bytes().to_vec()).unwrap();
        assert_eq!(b.function_name(f(1)), Some("helper"));
        assert_eq!(b.to_compacted().unwrap(), c);
        // Unnamed archives answer None.
        let plain = TwppArchive::from_compacted(&c);
        assert_eq!(plain.function_name(f(0)), None);
        // Partial name maps leave the rest unnamed.
        let mut partial = HashMap::new();
        partial.insert(f(1), "only".to_owned());
        let a = TwppArchive::from_compacted_named(&c, &partial);
        assert_eq!(a.function_name(f(0)), None);
        assert_eq!(a.function_name(f(1)), Some("only"));
    }

    #[test]
    fn file_round_trip_and_seek_read() {
        let dir = std::env::temp_dir().join("twpp-archive-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.twpa");
        let c = compact(&sample_wpp()).unwrap();
        let a = TwppArchive::from_compacted(&c);
        a.save(&path).unwrap();

        let loaded = TwppArchive::load(&path).unwrap();
        assert_eq!(loaded.to_compacted().unwrap(), c);

        let record = TwppArchive::read_function_from_file(&path, f(1)).unwrap();
        assert_eq!(record, a.read_function(f(1)).unwrap());
        assert!(TwppArchive::read_function_from_file(&path, f(9)).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_archives_are_still_readable() {
        let c = compact(&sample_wpp()).unwrap();
        let names = sample_names();
        let v2 = encode_v2_named(&c, &names).unwrap();
        let a = TwppArchive::from_bytes(v2).unwrap();
        assert_eq!(a.version(), VERSION_V2);
        assert_eq!(a.to_compacted().unwrap(), c);
        assert_eq!(a.read_dcg().unwrap(), c.dcg);
        assert_eq!(a.function_name(f(1)), Some("helper"));
        // And seek-reads work on v2 files too.
        let dir = std::env::temp_dir().join("twpp-archive-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.twpa");
        std::fs::write(&path, a.as_bytes()).unwrap();
        let record = TwppArchive::read_function_from_file(&path, f(1)).unwrap();
        assert_eq!(record.call_count, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_writer_matches_one_shot_encoder() {
        let c = compact(&sample_wpp()).unwrap();
        let names = sample_names();
        let mut w = ArchiveWriter::new(Vec::new(), &c.dcg, &names).unwrap();
        for fb in &c.functions {
            w.add_function(fb).unwrap();
        }
        let streamed = w.finish().unwrap();
        let one_shot = TwppArchive::from_compacted_named(&c, &names);
        assert_eq!(streamed, one_shot.as_bytes());
    }

    #[test]
    fn flipped_function_region_is_caught_and_others_survive() {
        let c = compact(&sample_wpp()).unwrap();
        let a = TwppArchive::from_compacted(&c);
        let mut bytes = a.as_bytes().to_vec();
        // Flip one payload bit of the first (hottest) function's frame.
        let flip_at = a.index.data_start + FRAME_HEADER_LEN + 2;
        bytes[flip_at] ^= 0x10;
        // The strict parser still accepts the container (payload CRCs are
        // lazy) but reading the damaged function reports the mismatch...
        let b = TwppArchive::from_bytes(bytes.clone()).unwrap();
        assert!(matches!(
            b.read_function(f(1)),
            Err(ArchiveError::ChecksumMismatch { region: "function region", .. })
        ));
        // ...while the untouched function still reads fine.
        assert_eq!(b.read_function(f(0)).unwrap(), a.read_function(f(0)).unwrap());
        // Salvage keeps the intact function and names the loss.
        let (salvaged, report) = TwppArchive::recover(&bytes).unwrap();
        assert!(!report.is_clean());
        assert!(report.committed && report.dcg_ok);
        assert_eq!(report.salvaged_functions(), 1);
        let lost = report.functions.iter().find(|v| !v.status.is_ok()).unwrap();
        assert_eq!(lost.func, f(1));
        assert_eq!(lost.status, RegionStatus::BadChecksum);
        assert_eq!(
            salvaged.read_function(f(0)).unwrap(),
            a.read_function(f(0)).unwrap()
        );
        assert!(salvaged.read_function(f(1)).is_err());
    }

    #[test]
    fn interrupted_write_is_not_committed_but_salvageable() {
        let c = compact(&sample_wpp()).unwrap();
        let names = sample_names();
        // Simulate a crash after the first frame: write header + one
        // function, never finish().
        let mut w = ArchiveWriter::new(Vec::new(), &c.dcg, &names).unwrap();
        w.add_function(&c.functions[0]).unwrap();
        let partial = w.sink.clone();
        drop(w);
        assert!(matches!(
            TwppArchive::from_bytes(partial.clone()),
            Err(ArchiveError::NotCommitted)
        ));
        let (salvaged, report) = TwppArchive::recover(&partial).unwrap();
        assert!(!report.committed);
        assert!(report.header_ok && report.dcg_ok && report.names_ok);
        assert_eq!(report.salvaged_functions(), 1);
        assert_eq!(salvaged.function_ids(), vec![c.functions[0].func]);
        assert_eq!(salvaged.read_dcg().unwrap(), c.dcg);
        assert_eq!(salvaged.function_name(f(1)), Some("helper"));
    }

    #[test]
    fn damaged_header_still_salvages_frames_by_scanning() {
        let c = compact(&sample_wpp()).unwrap();
        let a = TwppArchive::from_compacted(&c);
        let mut bytes = a.as_bytes().to_vec();
        bytes[9] ^= 0xff; // corrupt dcg_comp_len in the header
        assert!(matches!(
            TwppArchive::from_bytes(bytes.clone()),
            Err(ArchiveError::ChecksumMismatch { region: "header", .. })
        ));
        let (salvaged, report) = TwppArchive::recover(&bytes).unwrap();
        assert!(!report.header_ok);
        assert!(!report.dcg_ok);
        assert_eq!(report.salvaged_functions(), 2);
        // The DCG is lost but both functions decode from the rebuilt
        // archive.
        assert_eq!(salvaged.read_dcg().unwrap(), Dcg::empty());
        assert_eq!(
            salvaged.read_function(f(1)).unwrap().traces,
            a.read_function(f(1)).unwrap().traces
        );
    }

    #[test]
    fn recover_on_clean_archive_reports_clean() {
        let c = compact(&sample_wpp()).unwrap();
        let a = TwppArchive::from_compacted_named(&c, &sample_names());
        let (salvaged, report) = TwppArchive::recover(a.as_bytes()).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.salvaged_functions(), 2);
        assert_eq!(salvaged.to_compacted().unwrap(), c);
    }

    #[test]
    fn recover_v2_salvages_decodable_regions() {
        let c = compact(&sample_wpp()).unwrap();
        let v2 = encode_v2_named(&c, &sample_names()).unwrap();
        let (salvaged, report) = TwppArchive::recover(&v2).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.version, VERSION_V2);
        // Salvage upgrades to the current container.
        assert_eq!(salvaged.version(), VERSION);
        assert_eq!(salvaged.to_compacted().unwrap(), c);
        assert_eq!(salvaged.function_name(f(1)), Some("helper"));
        // Truncating the last region loses exactly that function.
        let cut = &v2[..v2.len() - 4];
        let (salvaged, report) = TwppArchive::recover(cut).unwrap();
        assert_eq!(report.salvaged_functions(), 1);
        assert!(salvaged.read_function(f(1)).is_ok());
    }

    #[test]
    fn recover_rejects_unusable_input() {
        assert!(matches!(
            TwppArchive::recover(b"XXXXXXXX"),
            Err(ArchiveError::BadMagic)
        ));
        assert!(matches!(
            TwppArchive::recover(b"TW"),
            Err(ArchiveError::Truncated)
        ));
        let mut bad_version = Vec::new();
        bad_version.extend_from_slice(&MAGIC);
        bad_version.extend_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            TwppArchive::recover(&bad_version),
            Err(ArchiveError::BadVersion(99))
        ));
    }

    #[test]
    fn corrupt_footer_falls_back_to_frame_scan() {
        let c = compact(&sample_wpp()).unwrap();
        let a = TwppArchive::from_compacted(&c);
        let mut bytes = a.as_bytes().to_vec();
        // Swap the two footer entries' func fields: footer CRC fails, so
        // salvage must rescan frames (whose own CRCs are intact).
        let n = bytes.len();
        let e0 = n - 16 - 2 * FOOTER_ENTRY_BYTES;
        let e1 = n - 16 - FOOTER_ENTRY_BYTES;
        for k in 0..4 {
            bytes.swap(e0 + k, e1 + k);
        }
        assert!(TwppArchive::from_bytes(bytes.clone()).is_err());
        let (salvaged, report) = TwppArchive::recover(&bytes).unwrap();
        assert!(!report.committed);
        assert_eq!(report.salvaged_functions(), 2);
        assert_eq!(salvaged.to_compacted().unwrap(), c);
    }

    #[test]
    fn declared_function_count_is_capped() {
        // A v3 footer tail claiming u32::MAX functions must be rejected
        // before any allocation.
        let c = compact(&sample_wpp()).unwrap();
        let a = TwppArchive::from_compacted(&c);
        let mut bytes = a.as_bytes().to_vec();
        let n = bytes.len();
        bytes[n - 16..n - 12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            TwppArchive::from_bytes(bytes),
            Err(ArchiveError::TooLarge { .. }) | Err(ArchiveError::Truncated)
        ));
    }
}
