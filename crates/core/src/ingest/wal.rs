//! The compactor's write-ahead log.
//!
//! `wal.log` holds the events of the open window — everything accepted
//! since the last seal. Every `feed` batch becomes one self-checking
//! record; after a crash, replaying the log reconstructs the window
//! exactly, and a torn final record (the append that was racing the
//! crash) is detected and dropped rather than misread.
//!
//! # Format (all integers little-endian)
//!
//! ```text
//! header:  "TWPW" | version u32                               (8 bytes)
//! record:  len u32 | crc u32 | offset u64 | payload           (16 + len)
//! ```
//!
//! `len` is the payload length in bytes and is always a multiple of 4:
//! the payload is the batch's events in the standard 32-bit WPP word
//! encoding. `offset` is the global event index of the first event in
//! the batch (events accepted before it, across the whole run) — resume
//! uses it to skip records whose events were already sealed into a
//! segment when the crash landed between the manifest write and the WAL
//! rotation. `crc` is CRC32 over the offset field and the payload.
//!
//! Every way a record can be unreadable — truncated header, truncated
//! payload, checksum mismatch, an undecodable event word, an impossible
//! length — collapses into [`WalError::TornTail`]: replay keeps the
//! clean prefix and reports the byte offset where the log stopped making
//! sense. Replay never panics and never returns silently wrong data
//! (property-tested against truncation at every byte offset).

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use twpp_tracer::WppEvent;

use crate::archive::Durability;
use twpp_ir::checksum::crc32;

/// File name of the write-ahead log inside a compactor directory.
pub const WAL_FILE: &str = "wal.log";
/// Magic bytes opening a WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"TWPW";
/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;
/// Size of the file header (magic + version).
pub const WAL_HEADER_LEN: usize = 8;
/// Size of a record header (len + crc + offset).
pub const WAL_RECORD_HEADER_LEN: usize = 16;
/// Upper bound on a single record's payload; anything larger is treated
/// as a torn length field rather than an allocation request.
const MAX_RECORD_BYTES: u32 = 1 << 28;

/// Path of the WAL inside a compactor directory.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

/// Errors reading or writing the write-ahead log.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum WalError {
    /// An I/O failure (path context in the message).
    Io(String),
    /// The file does not start with `TWPW`.
    BadMagic,
    /// The file's version field is not one this build understands.
    BadVersion(u32),
    /// The log is unreadable from `offset` onward — a torn final append
    /// (or, equivalently, any corruption past the clean prefix). The
    /// records before `offset` replayed cleanly.
    TornTail {
        /// Byte offset where the clean prefix ends.
        offset: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "I/O error: {msg}"),
            WalError::BadMagic => f.write_str("not a TWPW write-ahead log"),
            WalError::BadVersion(v) => write!(f, "unsupported WAL version {v}"),
            WalError::TornTail { offset } => {
                write!(f, "torn tail: log unreadable past byte {offset}")
            }
        }
    }
}

impl std::error::Error for WalError {}

fn io_err(path: &Path, e: &std::io::Error) -> WalError {
    WalError::Io(format!("{}: {e}", path.display()))
}

/// The outcome of tolerantly replaying a WAL.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalReplay {
    /// Each cleanly-read record: the global event offset it was appended
    /// at, and the decoded batch.
    pub batches: Vec<(u64, Vec<WppEvent>)>,
    /// Length in bytes of the clean prefix (header plus whole records).
    /// Resume truncates the file back to this before appending again.
    pub clean_bytes: u64,
    /// Where the unreadable tail starts, if the log did not end cleanly.
    /// Always equal to `clean_bytes` when present.
    pub torn_at: Option<u64>,
    /// Bytes in the unreadable tail (file length minus `clean_bytes`);
    /// zero when the log ended cleanly. These are the bytes resume drops,
    /// surfaced in `twpp_ingest_torn_tail_*` metrics and `fsck`.
    pub torn_bytes: u64,
}

impl WalReplay {
    /// All replayed events in append order, flattened across records.
    pub fn events(&self) -> Vec<WppEvent> {
        self.batches.iter().flat_map(|(_, b)| b.iter().copied()).collect()
    }

    /// Number of cleanly-read records.
    pub fn record_count(&self) -> usize {
        self.batches.len()
    }

    /// Total events across cleanly-read records.
    pub fn event_count(&self) -> u64 {
        self.batches.iter().map(|(_, b)| b.len() as u64).sum()
    }
}

/// The 8-byte WAL file header.
fn header_bytes() -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[..4].copy_from_slice(&WAL_MAGIC);
    h[4..].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

/// Encodes one record (header + payload) into `out`. `offset` is the
/// global index of the batch's first event. The payload is written once,
/// behind a placeholder `crc` that is patched in when it is complete.
pub fn encode_record(offset: u64, events: &[WppEvent], out: &mut Vec<u8>) {
    let len = (events.len() * 4) as u32;
    let start = out.len();
    out.reserve(WAL_RECORD_HEADER_LEN + events.len() * 4);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&offset.to_le_bytes());
    for e in events {
        out.extend_from_slice(&e.encode().to_le_bytes());
    }
    let crc = crc32(&out[start + 8..]);
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(b)
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Tolerantly replays a WAL image: returns every record in the clean
/// prefix and records where (if anywhere) the log turned unreadable.
///
/// An empty image is a valid empty log (a crash can land before the
/// header write reaches disk). A short or corrupt *header* is reported
/// as a torn tail at offset 0 unless the magic bytes are present but
/// wrong, which is [`WalError::BadMagic`] — that file was never ours.
pub fn replay_bytes(bytes: &[u8]) -> Result<WalReplay, WalError> {
    if bytes.is_empty() {
        return Ok(WalReplay { batches: Vec::new(), clean_bytes: 0, torn_at: None, torn_bytes: 0 });
    }
    let magic_prefix = &WAL_MAGIC[..bytes.len().min(4)];
    if &bytes[..bytes.len().min(4)] != magic_prefix {
        return Err(WalError::BadMagic);
    }
    if bytes.len() < WAL_HEADER_LEN {
        return Ok(WalReplay {
            batches: Vec::new(),
            clean_bytes: 0,
            torn_at: Some(0),
            torn_bytes: bytes.len() as u64,
        });
    }
    let version = read_u32(bytes, 4);
    if version != WAL_VERSION {
        return Err(WalError::BadVersion(version));
    }

    let mut batches = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    let torn_at = loop {
        if pos == bytes.len() {
            break None;
        }
        let rest = bytes.len() - pos;
        if rest < WAL_RECORD_HEADER_LEN {
            break Some(pos as u64);
        }
        let len = read_u32(bytes, pos);
        if len == 0 || !len.is_multiple_of(4) || len > MAX_RECORD_BYTES {
            break Some(pos as u64);
        }
        let len = len as usize;
        if rest < WAL_RECORD_HEADER_LEN + len {
            break Some(pos as u64);
        }
        let crc = read_u32(bytes, pos + 4);
        let body = &bytes[pos + 8..pos + WAL_RECORD_HEADER_LEN + len];
        if crc32(body) != crc {
            break Some(pos as u64);
        }
        let offset = read_u64(bytes, pos + 8);
        let mut events = Vec::with_capacity(len / 4);
        let mut ok = true;
        for i in 0..len / 4 {
            match WppEvent::decode(read_u32(bytes, pos + WAL_RECORD_HEADER_LEN + i * 4)) {
                Some(e) => events.push(e),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            break Some(pos as u64);
        }
        batches.push((offset, events));
        pos += WAL_RECORD_HEADER_LEN + len;
    };
    Ok(WalReplay {
        batches,
        clean_bytes: pos as u64,
        torn_at,
        torn_bytes: (bytes.len() - pos) as u64,
    })
}

/// Strict replay: like [`replay_bytes`] but a torn tail is an error
/// instead of a tolerated truncation point. Used by `fsck --strict`-like
/// callers and the property tests.
pub fn replay_strict(bytes: &[u8]) -> Result<Vec<(u64, Vec<WppEvent>)>, WalError> {
    let replay = replay_bytes(bytes)?;
    match replay.torn_at {
        Some(offset) => Err(WalError::TornTail { offset }),
        None => Ok(replay.batches),
    }
}

/// Append-side handle on the WAL. All writes honour the configured
/// [`Durability`]: with `Sync`, an acknowledged append survives a power
/// cut; with `Flush`, it survives a process kill; with `None`, it is
/// only as durable as the OS page cache.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    durability: Durability,
    len: u64,
}

impl WalWriter {
    /// Creates (or truncates) the WAL at `path` and writes the header.
    pub fn create(path: &Path, durability: Durability) -> Result<WalWriter, WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        file.write_all(&header_bytes()).map_err(|e| io_err(path, &e))?;
        durability.apply(&mut file).map_err(|e| io_err(path, &e))?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            durability,
            len: WAL_HEADER_LEN as u64,
        })
    }

    /// Reopens an existing WAL after replay, truncating away a torn tail:
    /// the file is cut back to `clean_bytes` (rewriting the header if even
    /// that was torn) and positioned for appending.
    pub fn open_resume(
        path: &Path,
        durability: Durability,
        clean_bytes: u64,
    ) -> Result<WalWriter, WalError> {
        if clean_bytes < WAL_HEADER_LEN as u64 {
            return WalWriter::create(path, durability);
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        file.set_len(clean_bytes).map_err(|e| io_err(path, &e))?;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err(path, &e))?;
        durability.apply(&mut file).map_err(|e| io_err(path, &e))?;
        Ok(WalWriter { file, path: path.to_path_buf(), durability, len: clean_bytes })
    }

    /// Appends one record and makes it durable. `offset` is the global
    /// index of the batch's first event. Returns the bytes written.
    ///
    /// On failure the file is truncated back to its pre-append length
    /// (best-effort), so a retried append starts from a clean boundary
    /// instead of stacking a fresh record behind a torn one. Replay
    /// would drop the torn tail anyway; the rollback just keeps retries
    /// from burying durable-looking bytes after garbage.
    pub fn append(&mut self, offset: u64, events: &[WppEvent]) -> Result<u64, WalError> {
        let mut buf = Vec::with_capacity(WAL_RECORD_HEADER_LEN + events.len() * 4);
        encode_record(offset, events, &mut buf);
        let write = self
            .file
            .write_all(&buf)
            .and_then(|()| self.durability.apply(&mut self.file));
        if let Err(e) = write {
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek(SeekFrom::End(0));
            return Err(io_err(&self.path, &e));
        }
        self.len += buf.len() as u64;
        Ok(buf.len() as u64)
    }

    /// Rotates the log after a seal: truncates every record away, leaving
    /// just the header. The sealed segment now owns those events.
    pub fn reset(&mut self) -> Result<(), WalError> {
        self.file
            .set_len(WAL_HEADER_LEN as u64)
            .map_err(|e| io_err(&self.path, &e))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err(&self.path, &e))?;
        self.durability.apply(&mut self.file).map_err(|e| io_err(&self.path, &e))?;
        self.len = WAL_HEADER_LEN as u64;
        Ok(())
    }

    /// Current file length in bytes (header included).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use twpp_ir::{BlockId, FuncId};

    fn batch(n: usize) -> Vec<WppEvent> {
        (0..n)
            .map(|i| match i % 3 {
                0 => WppEvent::Enter(FuncId::from_index(i)),
                1 => WppEvent::Block(BlockId::from_index(i)),
                _ => WppEvent::Exit,
            })
            .collect()
    }

    fn image(batches: &[(u64, Vec<WppEvent>)]) -> Vec<u8> {
        let mut out = header_bytes().to_vec();
        for (off, events) in batches {
            encode_record(*off, events, &mut out);
        }
        out
    }

    #[test]
    fn empty_and_header_only_replay_clean() {
        let r = replay_bytes(&[]).unwrap();
        assert_eq!(r.batches.len(), 0);
        assert_eq!(r.torn_at, None);
        let r = replay_bytes(&header_bytes()).unwrap();
        assert_eq!(r.batches.len(), 0);
        assert_eq!(r.clean_bytes, WAL_HEADER_LEN as u64);
        assert_eq!(r.torn_at, None);
    }

    #[test]
    fn round_trips_multiple_records() {
        let batches = vec![(0, batch(5)), (5, batch(1)), (6, batch(17))];
        let r = replay_bytes(&image(&batches)).unwrap();
        assert_eq!(r.batches, batches);
        assert_eq!(r.torn_at, None);
        assert_eq!(r.event_count(), 23);
    }

    #[test]
    fn truncation_keeps_clean_prefix() {
        let batches = vec![(0, batch(4)), (4, batch(4))];
        let full = image(&batches);
        let first_end = WAL_HEADER_LEN + WAL_RECORD_HEADER_LEN + 16;
        let cut = &full[..full.len() - 3];
        let r = replay_bytes(cut).unwrap();
        assert_eq!(r.batches, batches[..1]);
        assert_eq!(r.clean_bytes, first_end as u64);
        assert_eq!(r.torn_at, Some(first_end as u64));
        assert!(replay_strict(cut).is_err());
    }

    #[test]
    fn corrupt_crc_is_torn() {
        let mut full = image(&[(0, batch(4))]);
        let n = full.len();
        full[n - 1] ^= 0xff;
        let r = replay_bytes(&full).unwrap();
        assert_eq!(r.batches.len(), 0);
        assert_eq!(r.torn_at, Some(WAL_HEADER_LEN as u64));
    }

    #[test]
    fn foreign_file_is_bad_magic() {
        assert_eq!(replay_bytes(b"TWPAxxxx"), Err(WalError::BadMagic));
        assert_eq!(replay_bytes(b"Z"), Err(WalError::BadMagic));
    }

    #[test]
    fn writer_append_reset_cycle() {
        let dir = std::env::temp_dir().join(format!("twpp-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(WAL_FILE);
        let mut w = WalWriter::create(&path, Durability::Flush).unwrap();
        w.append(0, &batch(3)).unwrap();
        w.append(3, &batch(2)).unwrap();
        let r = replay_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(r.event_count(), 5);
        assert_eq!(r.batches[1].0, 3);
        w.reset().unwrap();
        let r = replay_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(r.event_count(), 0);
        assert_eq!(r.torn_at, None);
        w.append(5, &batch(1)).unwrap();
        let r = replay_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(r.batches, vec![(5, batch(1))]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
