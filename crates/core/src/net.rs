//! **twpp::net** — the length-prefixed framed protocol of the streaming
//! ingestion daemon (`twpp serve-ingest`).
//!
//! The wire discipline deliberately mirrors the WAL's: every frame is
//! magic-tagged, length-prefixed and CRC-protected, so a decoder facing
//! a hostile or merely unlucky byte stream can always classify it as
//! *incomplete* (wait for more bytes), *well-formed* (a [`Frame`]) or
//! *garbage* (a typed [`NetError`] — the connection is quarantined, the
//! daemon survives). Nothing in this module touches sockets except the
//! thin [`FramedStream`] / [`Client`] helpers; the codec itself is pure
//! bytes-in/frames-out and is property-tested that way.
//!
//! # Frame format (all integers little-endian)
//!
//! ```text
//! frame    := "TWPN" | len u32 | crc u32 | body
//! body     := kind u32 | payload              (len = body length, ≤ MAX)
//! ```
//!
//! `crc` is CRC32 over the body. Frame kinds and payloads:
//!
//! | kind | frame      | payload                                |
//! |------|------------|----------------------------------------|
//! | 1    | `Hello`    | source name (UTF-8)                    |
//! | 2    | `Events`   | offset u64, then 4-byte WPP event words|
//! | 3    | `Seal`     | empty                                  |
//! | 4    | `Drain`    | empty                                  |
//! | 16   | `Ok`       | accepted u64                           |
//! | 17   | `Busy`     | retry_after_ms u64                     |
//! | 18   | `Error`    | code u32, then UTF-8 message           |
//!
//! `Events.offset` is the global index of the batch's first event in
//! the source's stream. The server acknowledges with `Ok{accepted}` —
//! the number of events durably accepted so far — and silently skips
//! any batch prefix it already holds, which is what makes blind replay
//! after a `Busy` or a reconnect *exactly-once*: a client can always
//! resend from its last un-acknowledged offset and lose nothing.

use std::fmt;
use std::io::{Read, Write};

use twpp_tracer::WppEvent;

use twpp_ir::checksum::crc32;

use crate::gov::Retry;

/// Magic bytes opening every frame.
pub const NET_MAGIC: [u8; 4] = *b"TWPN";
/// Frame header length: magic + len + crc.
pub const FRAME_HEADER_LEN: usize = 12;
/// Upper bound on a frame body; a larger length field is a torn or
/// hostile frame, not an allocation request.
pub const MAX_FRAME_BYTES: u32 = 1 << 24;
/// Longest accepted source name.
pub const MAX_SOURCE_NAME: usize = 64;

/// Protocol error code: the frame could not be decoded.
pub const ERR_PROTOCOL: u32 = 1;
/// Protocol error code: the event batch is structurally invalid for the
/// source's stream (bad sequence or an offset gap).
pub const ERR_STREAM: u32 = 2;
/// Protocol error code: the source was failed in isolation (wedged seal
/// or unrecoverable I/O) and accepts no further events.
pub const ERR_SOURCE_FAILED: u32 = 3;
/// Protocol error code: the daemon is draining and accepts no new work.
pub const ERR_DRAINING: u32 = 4;
/// Protocol error code: the first frame on a connection must be `Hello`.
pub const ERR_NO_HELLO: u32 = 5;
/// Protocol error code: the named archive is not in the served fleet.
pub const ERR_UNKNOWN_ARCHIVE: u32 = 6;
/// Protocol error code: the request is well-formed on the wire but
/// unanswerable (unknown function, trace index out of range, …).
pub const ERR_BAD_REQUEST: u32 = 7;
/// Protocol error code: the queried function is a degraded sentinel and
/// carries no traces. A remote client maps this to the same degraded
/// exit the local CLI uses.
pub const ERR_DEGRADED: u32 = 8;

/// Errors decoding or transporting frames.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum NetError {
    /// An I/O failure on the underlying stream.
    Io(String),
    /// The bytes at the frame boundary do not start with `TWPN`.
    BadMagic,
    /// The length field exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The claimed body length.
        len: u32,
    },
    /// The body checksum does not match.
    BadCrc,
    /// The frame kind is not one this build understands.
    BadKind(u32),
    /// The payload is malformed for its kind (message says how).
    BadPayload(String),
    /// The connection closed mid-frame (a torn frame).
    Closed,
    /// The peer answered with an `Error` frame.
    Remote {
        /// The peer's error code (`ERR_*`).
        code: u32,
        /// The peer's message.
        message: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(msg) => write!(f, "network I/O error: {msg}"),
            NetError::BadMagic => f.write_str("frame does not start with TWPN magic"),
            NetError::Oversized { len } => {
                write!(f, "frame body of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
            }
            NetError::BadCrc => f.write_str("frame checksum mismatch"),
            NetError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            NetError::BadPayload(msg) => write!(f, "malformed frame payload: {msg}"),
            NetError::Closed => f.write_str("connection closed mid-frame"),
            NetError::Remote { code, message } => {
                write!(f, "peer error {code}: {message}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Per-request resource bounds carried by every serve request. Zero
/// means "server default" for the deadline and "unlimited" for steps;
/// the server clamps both against its own configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BudgetSpec {
    /// Wall-clock deadline in milliseconds (0 = server default).
    pub deadline_ms: u64,
    /// Solver step limit (0 = unlimited).
    pub max_steps: u64,
}

/// A `Query` request: list the expanded path traces of one function.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryReq {
    /// Archive name (file stem under the fleet root).
    pub archive: String,
    /// Function id to query.
    pub func: u32,
}

/// A `Slice` request: the backward dynamic-slice closure over one
/// trace's dynamic CFG from a criterion block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SliceReq {
    /// Archive name.
    pub archive: String,
    /// Function id.
    pub func: u32,
    /// Unique-trace index within the function's block.
    pub trace: u32,
    /// Criterion block id (a dynamic-CFG node head).
    pub criterion: u32,
}

/// A `Currency` request: which executions of a use see `def_block`'s
/// value un-clobbered by any of `redefs`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CurrencyReq {
    /// Archive name.
    pub archive: String,
    /// Function id.
    pub func: u32,
    /// Unique-trace index within the function's block.
    pub trace: u32,
    /// Block whose definition is being tracked.
    pub def_block: u32,
    /// Block where the value is observed.
    pub use_block: u32,
    /// Blocks that clobber the definition.
    pub redefs: Vec<u32>,
}

/// One fleet entry in an `Archives` reply.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArchiveStat {
    /// Archive name (file stem).
    pub name: String,
    /// Live (non-degraded) function count.
    pub functions: u32,
    /// Whether the archive carries degraded-function sentinels.
    pub degraded: bool,
    /// On-disk file size in bytes.
    pub file_bytes: u64,
}

/// Typed result payload of an [`Answer`], one variant per request kind.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AnswerData {
    /// Reply to [`QueryReq`].
    Query {
        /// Recorded call count of the function.
        call_count: u64,
        /// DBB dictionary count.
        dicts: u32,
        /// Unique path traces the function holds.
        total_traces: u32,
        /// Traces actually rendered before the budget ran out
        /// (`== total_traces` when complete).
        rendered: u32,
    },
    /// Reply to [`SliceReq`]: the slice as sorted block ids.
    Slice {
        /// Sorted, deduplicated block ids in the slice closure.
        blocks: Vec<u32>,
    },
    /// Reply to [`CurrencyReq`].
    Currency {
        /// Timestamps at the use where the definition is current.
        current: u64,
        /// Total timestamps examined at the use.
        total: u64,
        /// `holds` timestamp set, wire words ([`TsSet::to_wire`]).
        ///
        /// [`TsSet::to_wire`]: crate::tsset::TsSet::to_wire
        holds: Vec<i32>,
        /// `not_holds` timestamp set, wire words.
        not_holds: Vec<i32>,
    },
}

/// A complete or governed-partial answer to a serve request.
///
/// `text` carries the exact bytes the local one-shot CLI would print
/// for the same request, so remote output is byte-identical by
/// construction; the structured fields exist for machine comparison
/// (conformance, tests) and for the client to reproduce the CLI's
/// degraded-exit contract.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Answer {
    /// Whether the solver ran to completion.
    pub complete: bool,
    /// Why it stopped when partial: 0 none, 1 deadline, 2 step limit,
    /// 3 byte limit, 4 cancelled.
    pub stop_code: u32,
    /// Fraction of the full answer covered, as `f64::to_bits` (kept as
    /// bits so `Frame` stays `Eq`); `1.0` when complete.
    pub coverage_bits: u64,
    /// Rendered answer, byte-identical to the local CLI's stdout.
    pub text: String,
    /// Structured result.
    pub data: AnswerData,
}

impl Answer {
    /// Coverage as a fraction in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        f64::from_bits(self.coverage_bits)
    }
}

/// One protocol frame: ingest client→server verbs
/// (`Hello`/`Events`/`Seal`/`Drain`), serve request verbs
/// (`Query`/`Slice`/`Currency`/`ListArchives`/`Stat`), and
/// server→client replies (`Ok`/`Busy`/`Error`/`Answer`/`Archives`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Frame {
    /// Opens a connection: names the source stream the events belong to.
    /// The server replies `Ok{accepted}` so a reconnecting client learns
    /// the durable position to resume from.
    Hello {
        /// Source name; see [`valid_source_name`].
        source: String,
    },
    /// A batch of events starting at global index `offset`.
    Events {
        /// Global index of the first event in the batch.
        offset: u64,
        /// The batch.
        events: Vec<WppEvent>,
    },
    /// Forces the source's open window to seal into a segment.
    Seal,
    /// Requests a daemon-wide graceful drain.
    Drain,
    /// Acknowledgement: `accepted` events are durable for this source.
    Ok {
        /// Durable event count for the connection's source.
        accepted: u64,
    },
    /// Backpressure: retry the same frame after the hinted pause.
    Busy {
        /// Suggested client-side pause, in milliseconds.
        retry_after_ms: u64,
    },
    /// A typed refusal; see the `ERR_*` constants.
    Error {
        /// One of the `ERR_*` codes.
        code: u32,
        /// Human-readable context.
        message: String,
    },
    /// Serve: list one function's expanded path traces.
    Query {
        /// What to answer.
        req: QueryReq,
        /// Resource bounds.
        budget: BudgetSpec,
    },
    /// Serve: backward dynamic slice over one trace's dynamic CFG.
    Slice {
        /// What to answer.
        req: SliceReq,
        /// Resource bounds.
        budget: BudgetSpec,
    },
    /// Serve: currency determination at a use.
    Currency {
        /// What to answer.
        req: CurrencyReq,
        /// Resource bounds.
        budget: BudgetSpec,
    },
    /// Serve: enumerate the fleet.
    ListArchives,
    /// Serve: stat one archive.
    Stat {
        /// Archive name.
        archive: String,
    },
    /// Serve reply: a complete or governed-partial answer.
    Answer(Box<Answer>),
    /// Serve reply to `ListArchives` (every fleet entry, name-sorted)
    /// and `Stat` (exactly one entry).
    Archives {
        /// The fleet entries.
        entries: Vec<ArchiveStat>,
    },
}

const KIND_HELLO: u32 = 1;
const KIND_EVENTS: u32 = 2;
const KIND_SEAL: u32 = 3;
const KIND_DRAIN: u32 = 4;
const KIND_OK: u32 = 16;
const KIND_BUSY: u32 = 17;
const KIND_ERROR: u32 = 18;
const KIND_QUERY: u32 = 32;
const KIND_SLICE: u32 = 33;
const KIND_CURRENCY: u32 = 34;
const KIND_LIST_ARCHIVES: u32 = 35;
const KIND_STAT: u32 = 36;
const KIND_ANSWER: u32 = 48;
const KIND_ARCHIVES: u32 = 49;

const ANSWER_TAG_QUERY: u32 = 1;
const ANSWER_TAG_SLICE: u32 = 2;
const ANSWER_TAG_CURRENCY: u32 = 3;

/// Whether `name` is acceptable as a source name (and therefore as a
/// subdirectory of the daemon's root): 1..=64 chars of
/// `[A-Za-z0-9._-]`, not starting with a dot or dash.
pub fn valid_source_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_SOURCE_NAME
        && !name.starts_with(['.', '-'])
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

impl Frame {
    fn kind(&self) -> u32 {
        match self {
            Frame::Hello { .. } => KIND_HELLO,
            Frame::Events { .. } => KIND_EVENTS,
            Frame::Seal => KIND_SEAL,
            Frame::Drain => KIND_DRAIN,
            Frame::Ok { .. } => KIND_OK,
            Frame::Busy { .. } => KIND_BUSY,
            Frame::Error { .. } => KIND_ERROR,
            Frame::Query { .. } => KIND_QUERY,
            Frame::Slice { .. } => KIND_SLICE,
            Frame::Currency { .. } => KIND_CURRENCY,
            Frame::ListArchives => KIND_LIST_ARCHIVES,
            Frame::Stat { .. } => KIND_STAT,
            Frame::Answer(_) => KIND_ANSWER,
            Frame::Archives { .. } => KIND_ARCHIVES,
        }
    }

    /// Serializes the frame (header + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the serialized frame (header + body) to `out`. The body
    /// is written once, behind a placeholder header whose `len` and
    /// `crc` are patched in when the body is complete.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let body_hint = match self {
            Frame::Events { events, .. } => 12 + 4 * events.len(),
            _ => 16,
        };
        out.reserve(FRAME_HEADER_LEN + body_hint);
        let start = out.len();
        out.extend_from_slice(&NET_MAGIC);
        out.extend_from_slice(&[0; 8]);
        out.extend_from_slice(&self.kind().to_le_bytes());
        match self {
            Frame::Hello { source } => out.extend_from_slice(source.as_bytes()),
            Frame::Events { offset, events } => {
                out.extend_from_slice(&offset.to_le_bytes());
                for e in events {
                    out.extend_from_slice(&e.encode().to_le_bytes());
                }
            }
            Frame::Seal | Frame::Drain => {}
            Frame::Ok { accepted } => out.extend_from_slice(&accepted.to_le_bytes()),
            Frame::Busy { retry_after_ms } => out.extend_from_slice(&retry_after_ms.to_le_bytes()),
            Frame::Error { code, message } => {
                out.extend_from_slice(&code.to_le_bytes());
                out.extend_from_slice(message.as_bytes());
            }
            Frame::Query { req, budget } => {
                put_str(out, &req.archive);
                out.extend_from_slice(&req.func.to_le_bytes());
                put_budget(out, budget);
            }
            Frame::Slice { req, budget } => {
                put_str(out, &req.archive);
                out.extend_from_slice(&req.func.to_le_bytes());
                out.extend_from_slice(&req.trace.to_le_bytes());
                out.extend_from_slice(&req.criterion.to_le_bytes());
                put_budget(out, budget);
            }
            Frame::Currency { req, budget } => {
                put_str(out, &req.archive);
                out.extend_from_slice(&req.func.to_le_bytes());
                out.extend_from_slice(&req.trace.to_le_bytes());
                out.extend_from_slice(&req.def_block.to_le_bytes());
                out.extend_from_slice(&req.use_block.to_le_bytes());
                out.extend_from_slice(&(req.redefs.len() as u32).to_le_bytes());
                for r in &req.redefs {
                    out.extend_from_slice(&r.to_le_bytes());
                }
                put_budget(out, budget);
            }
            Frame::ListArchives => {}
            Frame::Stat { archive } => put_str(out, archive),
            Frame::Answer(a) => {
                let tag = match &a.data {
                    AnswerData::Query { .. } => ANSWER_TAG_QUERY,
                    AnswerData::Slice { .. } => ANSWER_TAG_SLICE,
                    AnswerData::Currency { .. } => ANSWER_TAG_CURRENCY,
                };
                out.extend_from_slice(&tag.to_le_bytes());
                out.extend_from_slice(&u32::from(a.complete).to_le_bytes());
                out.extend_from_slice(&a.stop_code.to_le_bytes());
                out.extend_from_slice(&a.coverage_bits.to_le_bytes());
                put_str(out, &a.text);
                match &a.data {
                    AnswerData::Query { call_count, dicts, total_traces, rendered } => {
                        out.extend_from_slice(&call_count.to_le_bytes());
                        out.extend_from_slice(&dicts.to_le_bytes());
                        out.extend_from_slice(&total_traces.to_le_bytes());
                        out.extend_from_slice(&rendered.to_le_bytes());
                    }
                    AnswerData::Slice { blocks } => {
                        out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
                        for b in blocks {
                            out.extend_from_slice(&b.to_le_bytes());
                        }
                    }
                    AnswerData::Currency { current, total, holds, not_holds } => {
                        out.extend_from_slice(&current.to_le_bytes());
                        out.extend_from_slice(&total.to_le_bytes());
                        for words in [holds, not_holds] {
                            out.extend_from_slice(&(words.len() as u32).to_le_bytes());
                            for w in words {
                                out.extend_from_slice(&w.to_le_bytes());
                            }
                        }
                    }
                }
            }
            Frame::Archives { entries } => {
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for e in entries {
                    put_str(out, &e.name);
                    out.extend_from_slice(&e.functions.to_le_bytes());
                    out.extend_from_slice(&u32::from(e.degraded).to_le_bytes());
                    out.extend_from_slice(&e.file_bytes.to_le_bytes());
                }
            }
        }
        let body = &out[start + FRAME_HEADER_LEN..];
        let (len, crc) = (body.len() as u32, crc32(body));
        out[start + 4..start + 8].copy_from_slice(&len.to_le_bytes());
        out[start + 8..start + 12].copy_from_slice(&crc.to_le_bytes());
    }

    /// Decodes a CRC-verified frame body (kind word + payload).
    fn decode_body(body: &[u8]) -> Result<Frame, NetError> {
        if body.len() < 4 {
            return Err(NetError::BadPayload("body shorter than its kind word".into()));
        }
        let kind = read_u32(body, 0);
        let payload = &body[4..];
        match kind {
            KIND_HELLO => {
                let source = std::str::from_utf8(payload)
                    .map_err(|_| NetError::BadPayload("source name is not UTF-8".into()))?
                    .to_owned();
                if !valid_source_name(&source) {
                    return Err(NetError::BadPayload(format!(
                        "invalid source name {source:?}"
                    )));
                }
                Ok(Frame::Hello { source })
            }
            KIND_EVENTS => {
                if payload.len() < 8 || !(payload.len() - 8).is_multiple_of(4) {
                    return Err(NetError::BadPayload(
                        "events payload is not offset + whole words".into(),
                    ));
                }
                let offset = read_u64(payload, 0);
                let mut events = Vec::with_capacity((payload.len() - 8) / 4);
                for w in payload[8..].chunks_exact(4) {
                    let word = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
                    match WppEvent::decode(word) {
                        Some(e) => events.push(e),
                        None => {
                            return Err(NetError::BadPayload(format!(
                                "undecodable event word {word:#010x}"
                            )))
                        }
                    }
                }
                Ok(Frame::Events { offset, events })
            }
            KIND_SEAL | KIND_DRAIN => {
                if !payload.is_empty() {
                    return Err(NetError::BadPayload("control frame carries a payload".into()));
                }
                Ok(if kind == KIND_SEAL { Frame::Seal } else { Frame::Drain })
            }
            KIND_OK | KIND_BUSY => {
                if payload.len() != 8 {
                    return Err(NetError::BadPayload("expected one u64 payload".into()));
                }
                let v = read_u64(payload, 0);
                Ok(if kind == KIND_OK {
                    Frame::Ok { accepted: v }
                } else {
                    Frame::Busy { retry_after_ms: v }
                })
            }
            KIND_ERROR => {
                if payload.len() < 4 {
                    return Err(NetError::BadPayload("error frame without a code".into()));
                }
                let code = read_u32(payload, 0);
                let message = String::from_utf8_lossy(&payload[4..]).into_owned();
                Ok(Frame::Error { code, message })
            }
            KIND_QUERY => {
                let mut r = Reader::new(payload);
                let archive = r.archive_name()?;
                let func = r.u32()?;
                let budget = r.budget()?;
                r.done()?;
                Ok(Frame::Query { req: QueryReq { archive, func }, budget })
            }
            KIND_SLICE => {
                let mut r = Reader::new(payload);
                let archive = r.archive_name()?;
                let func = r.u32()?;
                let trace = r.u32()?;
                let criterion = r.u32()?;
                let budget = r.budget()?;
                r.done()?;
                Ok(Frame::Slice {
                    req: SliceReq { archive, func, trace, criterion },
                    budget,
                })
            }
            KIND_CURRENCY => {
                let mut r = Reader::new(payload);
                let archive = r.archive_name()?;
                let func = r.u32()?;
                let trace = r.u32()?;
                let def_block = r.u32()?;
                let use_block = r.u32()?;
                let n = r.u32()? as usize;
                let redefs = r.u32_vec(n)?;
                let budget = r.budget()?;
                r.done()?;
                Ok(Frame::Currency {
                    req: CurrencyReq { archive, func, trace, def_block, use_block, redefs },
                    budget,
                })
            }
            KIND_LIST_ARCHIVES => {
                if !payload.is_empty() {
                    return Err(NetError::BadPayload("control frame carries a payload".into()));
                }
                Ok(Frame::ListArchives)
            }
            KIND_STAT => {
                let mut r = Reader::new(payload);
                let archive = r.archive_name()?;
                r.done()?;
                Ok(Frame::Stat { archive })
            }
            KIND_ANSWER => {
                let mut r = Reader::new(payload);
                let tag = r.u32()?;
                let complete = r.flag()?;
                let stop_code = r.u32()?;
                if stop_code > 4 {
                    return Err(NetError::BadPayload(format!("bad stop code {stop_code}")));
                }
                let coverage_bits = r.u64()?;
                let cov = f64::from_bits(coverage_bits);
                if !(0.0..=1.0).contains(&cov) {
                    return Err(NetError::BadPayload("coverage outside [0, 1]".into()));
                }
                let text = r.str()?;
                let data = match tag {
                    ANSWER_TAG_QUERY => AnswerData::Query {
                        call_count: r.u64()?,
                        dicts: r.u32()?,
                        total_traces: r.u32()?,
                        rendered: r.u32()?,
                    },
                    ANSWER_TAG_SLICE => {
                        let n = r.u32()? as usize;
                        AnswerData::Slice { blocks: r.u32_vec(n)? }
                    }
                    ANSWER_TAG_CURRENCY => {
                        let current = r.u64()?;
                        let total = r.u64()?;
                        let nh = r.u32()? as usize;
                        let holds = r.i32_vec(nh)?;
                        let nn = r.u32()? as usize;
                        let not_holds = r.i32_vec(nn)?;
                        AnswerData::Currency { current, total, holds, not_holds }
                    }
                    other => {
                        return Err(NetError::BadPayload(format!("unknown answer tag {other}")))
                    }
                };
                r.done()?;
                Ok(Frame::Answer(Box::new(Answer {
                    complete,
                    stop_code,
                    coverage_bits,
                    text,
                    data,
                })))
            }
            KIND_ARCHIVES => {
                let mut r = Reader::new(payload);
                let n = r.u32()? as usize;
                if n > payload.len() {
                    return Err(NetError::BadPayload("archive count exceeds payload".into()));
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(ArchiveStat {
                        name: r.archive_name()?,
                        functions: r.u32()?,
                        degraded: r.flag()?,
                        file_bytes: r.u64()?,
                    });
                }
                r.done()?;
                Ok(Frame::Archives { entries })
            }
            other => Err(NetError::BadKind(other)),
        }
    }
}

fn put_str(body: &mut Vec<u8>, s: &str) {
    body.extend_from_slice(&(s.len() as u32).to_le_bytes());
    body.extend_from_slice(s.as_bytes());
}

fn put_budget(body: &mut Vec<u8>, b: &BudgetSpec) {
    body.extend_from_slice(&b.deadline_ms.to_le_bytes());
    body.extend_from_slice(&b.max_steps.to_le_bytes());
}

/// Strict little-endian cursor for serve-frame payloads: every read is
/// bounds-checked and [`Reader::done`] rejects trailing garbage, so a
/// malformed body always surfaces as a typed [`NetError::BadPayload`].
struct Reader<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(b: &'a [u8]) -> Reader<'a> {
        Reader { b, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        if self.b.len() - self.at < n {
            return Err(NetError::BadPayload("payload truncated".into()));
        }
        let out = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(read_u32(self.take(4)?, 0))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(read_u64(self.take(8)?, 0))
    }

    fn flag(&mut self) -> Result<bool, NetError> {
        match self.u32()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(NetError::BadPayload(format!("bad boolean {other}"))),
        }
    }

    fn str(&mut self) -> Result<String, NetError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| NetError::BadPayload("string is not UTF-8".into()))
    }

    fn archive_name(&mut self) -> Result<String, NetError> {
        let name = self.str()?;
        if !valid_source_name(&name) {
            return Err(NetError::BadPayload(format!("invalid archive name {name:?}")));
        }
        Ok(name)
    }

    fn budget(&mut self) -> Result<BudgetSpec, NetError> {
        Ok(BudgetSpec { deadline_ms: self.u64()?, max_steps: self.u64()? })
    }

    fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, NetError> {
        let bytes = self.take(n.checked_mul(4).ok_or_else(|| {
            NetError::BadPayload("element count overflows".into())
        })?)?;
        Ok(bytes.chunks_exact(4).map(|c| read_u32(c, 0)).collect())
    }

    fn i32_vec(&mut self, n: usize) -> Result<Vec<i32>, NetError> {
        Ok(self.u32_vec(n)?.into_iter().map(|w| w as i32).collect())
    }

    fn done(&self) -> Result<(), NetError> {
        if self.at != self.b.len() {
            return Err(NetError::BadPayload("trailing bytes after payload".into()));
        }
        Ok(())
    }
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

/// Incremental frame decoder over a growing byte buffer.
///
/// Push bytes as they arrive; [`FrameDecoder::next_frame`] yields
/// `Ok(Some(frame))` for each complete well-formed frame, `Ok(None)`
/// when the buffered bytes are a (possibly empty) prefix of a frame,
/// and a typed [`NetError`] the moment the buffer cannot be a prefix of
/// any valid frame — at which point the connection should be dropped
/// (the decoder makes no attempt to resynchronise inside a poisoned
/// stream).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily so a long-lived connection doesn't grow without
        // bound: drop the consumed prefix once it dominates the buffer.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Attempts to decode the next frame; see the type docs for the
    /// three-way contract.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, NetError> {
        let rest = &self.buf[self.pos..];
        if rest.is_empty() {
            return Ok(None);
        }
        let probe = rest.len().min(4);
        if rest[..probe] != NET_MAGIC[..probe] {
            return Err(NetError::BadMagic);
        }
        if rest.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let len = read_u32(rest, 4);
        if len > MAX_FRAME_BYTES {
            return Err(NetError::Oversized { len });
        }
        let total = FRAME_HEADER_LEN + len as usize;
        if rest.len() < total {
            return Ok(None);
        }
        let crc = read_u32(rest, 8);
        let body = &rest[FRAME_HEADER_LEN..total];
        if crc32(body) != crc {
            return Err(NetError::BadCrc);
        }
        let frame = Frame::decode_body(body)?;
        self.pos += total;
        Ok(Some(frame))
    }
}

/// A blocking frame transport over any `Read + Write` stream.
#[derive(Debug)]
pub struct FramedStream<S> {
    stream: S,
    decoder: FrameDecoder,
}

impl<S: Read + Write> FramedStream<S> {
    /// Wraps a connected stream.
    pub fn new(stream: S) -> FramedStream<S> {
        FramedStream { stream, decoder: FrameDecoder::new() }
    }

    /// The underlying stream (for timeouts, shutdown, addresses).
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Writes one frame and flushes.
    pub fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        let bytes = frame.encode();
        self.stream
            .write_all(&bytes)
            .and_then(|()| self.stream.flush())
            .map_err(|e| NetError::Io(e.to_string()))
    }

    /// Blocks until the next complete frame arrives. A clean close at a
    /// frame boundary and a close mid-frame both surface as
    /// [`NetError::Closed`] (the caller knows whether it expected EOF).
    ///
    /// A read timeout configured on the underlying socket surfaces as
    /// [`NetError::Io`] with a `WouldBlock`/`TimedOut` message; callers
    /// that poll use [`FramedStream::recv_step`] instead.
    pub fn recv(&mut self) -> Result<Frame, NetError> {
        loop {
            match self.recv_step()? {
                Some(frame) => return Ok(frame),
                None => continue,
            }
        }
    }

    /// One poll step: reads once from the stream and returns a frame if
    /// one completed. `Ok(None)` means "no full frame yet" — either the
    /// read returned partial bytes or it timed out (when the socket has
    /// a read timeout), letting the caller interleave shutdown checks.
    pub fn recv_step(&mut self) -> Result<Option<Frame>, NetError> {
        if let Some(frame) = self.decoder.next_frame()? {
            return Ok(Some(frame));
        }
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(NetError::Closed),
            Ok(n) => {
                self.decoder.push(&chunk[..n]);
                self.decoder.next_frame()
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(None)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(NetError::Io(e.to_string())),
        }
    }
}

/// A minimal ingest client: HELLO handshake, offset-tracked event
/// batches with BUSY-honouring retry, seal and drain. This is the same
/// code path `twpp net-feed` and the test harnesses use, so the
/// replay-after-BUSY contract is exercised exactly as documented.
#[derive(Debug)]
pub struct Client<S> {
    framed: FramedStream<S>,
    accepted: u64,
}

impl<S: Read + Write> Client<S> {
    /// Performs the HELLO handshake on a connected stream. Returns the
    /// client; [`Client::accepted`] then holds the server's durable
    /// position for `source` (non-zero after a reconnect).
    pub fn hello(stream: S, source: &str) -> Result<Client<S>, NetError> {
        let mut framed = FramedStream::new(stream);
        framed.send(&Frame::Hello { source: source.to_owned() })?;
        match framed.recv()? {
            Frame::Ok { accepted } => Ok(Client { framed, accepted }),
            Frame::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::BadPayload(format!(
                "expected Ok/Error after Hello, got {other:?}"
            ))),
        }
    }

    /// Events the server has durably accepted for this source.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Sends one `Events` batch at the current accepted offset, honouring
    /// `Busy` responses by sleeping the hinted (or backoff-jittered)
    /// pause and resending — bounded by the retry policy's attempt cap.
    /// On `Ok` the server's accepted count is recorded and returned.
    pub fn send_events(&mut self, events: &[WppEvent], retry: &Retry) -> Result<u64, NetError> {
        let offset = self.accepted;
        let cap = retry.max_attempts.max(1);
        let mut busy_rounds = 0u32;
        loop {
            self.framed.send(&Frame::Events { offset, events: events.to_vec() })?;
            match self.framed.recv()? {
                Frame::Ok { accepted } => {
                    self.accepted = accepted;
                    return Ok(accepted);
                }
                Frame::Busy { retry_after_ms } => {
                    busy_rounds += 1;
                    if busy_rounds >= cap {
                        return Err(NetError::Remote {
                            code: ERR_DRAINING,
                            message: format!("still busy after {busy_rounds} attempts"),
                        });
                    }
                    let ms = retry_after_ms.max(retry.backoff_ms(busy_rounds));
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
                Frame::Error { code, message } => return Err(NetError::Remote { code, message }),
                other => {
                    return Err(NetError::BadPayload(format!(
                        "expected Ok/Busy/Error after Events, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Sends a control frame (`Seal` or `Drain`) and waits for the ack.
    fn control(&mut self, frame: Frame) -> Result<u64, NetError> {
        self.framed.send(&frame)?;
        match self.framed.recv()? {
            Frame::Ok { accepted } => {
                self.accepted = accepted;
                Ok(accepted)
            }
            Frame::Error { code, message } => Err(NetError::Remote { code, message }),
            other => Err(NetError::BadPayload(format!(
                "expected Ok/Error after control frame, got {other:?}"
            ))),
        }
    }

    /// Asks the server to seal the source's open window now.
    pub fn seal(&mut self) -> Result<u64, NetError> {
        self.control(Frame::Seal)
    }

    /// Requests a daemon-wide graceful drain.
    pub fn drain(&mut self) -> Result<u64, NetError> {
        self.control(Frame::Drain)
    }
}

// ---------------------------------------------------------------------------
// Minimal HTTP/1.0 helpers (the daemon's admin plane)
// ---------------------------------------------------------------------------
//
// The admin listener speaks just enough HTTP/1.0 for `curl`, Prometheus
// scrapers and `twpp status`: one GET request per connection, a fixed
// response, `Connection: close`. No keep-alive, no chunking, no TLS —
// anything beyond a two-token GET line is refused, which keeps the
// parser too small to be attack surface.

/// Cap on an accepted HTTP request head; the admin plane serves short
/// GET lines, anything larger is hostile, not a request.
pub const MAX_HTTP_HEAD: usize = 8192;

/// Reads one HTTP request head from `stream` and returns the request
/// path of a well-formed `GET <path> HTTP/1.x` line.
///
/// # Errors
///
/// [`NetError::Io`] on transport failure, [`NetError::BadPayload`] for
/// anything that is not a plain GET (wrong method, oversized head,
/// malformed request line).
pub fn http_read_request_path<S: Read>(stream: &mut S) -> Result<String, NetError> {
    let mut head = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if head.len() > MAX_HTTP_HEAD {
            return Err(NetError::BadPayload("oversized HTTP request head".into()));
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::Io(e.to_string())),
        }
    }
    let text = std::str::from_utf8(&head)
        .map_err(|_| NetError::BadPayload("HTTP request head is not UTF-8".into()))?;
    let line = text.lines().next().unwrap_or("");
    let mut words = line.split_whitespace();
    match (words.next(), words.next(), words.next(), words.next()) {
        (Some("GET"), Some(path), Some(version), None)
            if path.starts_with('/') && version.starts_with("HTTP/") =>
        {
            Ok(path.to_owned())
        }
        _ => Err(NetError::BadPayload(format!("not a plain HTTP GET: {line:?}"))),
    }
}

/// Writes a complete HTTP/1.0 response (status line, `Content-Type`,
/// `Content-Length`, `Connection: close`, body) and flushes.
///
/// # Errors
///
/// [`NetError::Io`] if the transport fails.
pub fn http_write_response<S: Write>(
    stream: &mut S,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> Result<(), NetError> {
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .and_then(|()| stream.flush())
        .map_err(|e| NetError::Io(e.to_string()))
}

/// Fetches `path` from an admin listener at `addr` and returns
/// `(status, body)`. `addr` uses the same spec grammar as the daemon's
/// listeners: `tcp:host:port` (or a bare `host:port`) and, on Unix,
/// `unix:/path/to.sock`.
///
/// # Errors
///
/// [`NetError::Io`] on connect/transport failure, or
/// [`NetError::BadPayload`] when the peer's reply is not an HTTP
/// response.
pub fn http_get(addr: &str, path: &str) -> Result<(u16, String), NetError> {
    let request = format!("GET {path} HTTP/1.0\r\nHost: twpp-admin\r\nConnection: close\r\n\r\n");
    let raw = if let Some(sock) = addr.strip_prefix("unix:") {
        #[cfg(unix)]
        {
            let mut stream = std::os::unix::net::UnixStream::connect(sock)
                .map_err(|e| NetError::Io(format!("connect {sock}: {e}")))?;
            http_exchange(&mut stream, &request)?
        }
        #[cfg(not(unix))]
        {
            return Err(NetError::Io(format!(
                "unix sockets are unsupported on this platform: {sock}"
            )));
        }
    } else {
        let tcp = addr.strip_prefix("tcp:").unwrap_or(addr);
        let mut stream = std::net::TcpStream::connect(tcp)
            .map_err(|e| NetError::Io(format!("connect {tcp}: {e}")))?;
        http_exchange(&mut stream, &request)?
    };
    parse_http_response(&raw)
}

fn http_exchange<S: Read + Write>(stream: &mut S, request: &str) -> Result<Vec<u8>, NetError> {
    stream
        .write_all(request.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| NetError::Io(e.to_string()))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| NetError::Io(e.to_string()))?;
    Ok(raw)
}

fn parse_http_response(raw: &[u8]) -> Result<(u16, String), NetError> {
    let text = String::from_utf8_lossy(raw);
    let line = text.lines().next().unwrap_or("");
    let status = line
        .strip_prefix("HTTP/")
        .and_then(|rest| rest.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| NetError::BadPayload(format!("not an HTTP response: {line:?}")))?;
    let body = match text.split_once("\r\n\r\n").or_else(|| text.split_once("\n\n")) {
        Some((_, body)) => body.to_owned(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use twpp_ir::{BlockId, FuncId};

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { source: "web-01".into() },
            Frame::Events {
                offset: 17,
                events: vec![
                    WppEvent::Enter(FuncId::from_u32(3)),
                    WppEvent::Block(BlockId::new(9)),
                    WppEvent::Exit,
                ],
            },
            Frame::Events { offset: 0, events: vec![] },
            Frame::Seal,
            Frame::Drain,
            Frame::Ok { accepted: u64::MAX },
            Frame::Busy { retry_after_ms: 25 },
            Frame::Error { code: ERR_STREAM, message: "offset gap".into() },
            Frame::Query {
                req: QueryReq { archive: "web-01".into(), func: 3 },
                budget: BudgetSpec { deadline_ms: 250, max_steps: 0 },
            },
            Frame::Slice {
                req: SliceReq { archive: "a.b-c".into(), func: 0, trace: 2, criterion: 7 },
                budget: BudgetSpec::default(),
            },
            Frame::Currency {
                req: CurrencyReq {
                    archive: "fleet42".into(),
                    func: 1,
                    trace: 0,
                    def_block: 2,
                    use_block: 9,
                    redefs: vec![3, 5],
                },
                budget: BudgetSpec { deadline_ms: 0, max_steps: 1000 },
            },
            Frame::ListArchives,
            Frame::Stat { archive: "web-01".into() },
            Frame::Answer(Box::new(Answer {
                complete: true,
                stop_code: 0,
                coverage_bits: 1.0f64.to_bits(),
                text: "function 3: 4 calls\n".into(),
                data: AnswerData::Query { call_count: 4, dicts: 1, total_traces: 2, rendered: 2 },
            })),
            Frame::Answer(Box::new(Answer {
                complete: false,
                stop_code: 2,
                coverage_bits: 0.5f64.to_bits(),
                text: String::new(),
                data: AnswerData::Slice { blocks: vec![1, 4, 9] },
            })),
            Frame::Answer(Box::new(Answer {
                complete: true,
                stop_code: 0,
                coverage_bits: 1.0f64.to_bits(),
                text: "currency 2/3\n".into(),
                data: AnswerData::Currency {
                    current: 2,
                    total: 3,
                    holds: vec![2, -4],
                    not_holds: vec![-7],
                },
            })),
            Frame::Archives {
                entries: vec![ArchiveStat {
                    name: "web-01".into(),
                    functions: 12,
                    degraded: false,
                    file_bytes: 4096,
                }],
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let mut dec = FrameDecoder::new();
        for f in sample_frames() {
            dec.push(&f.encode());
            assert_eq!(dec.next_frame().unwrap(), Some(f));
        }
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn byte_at_a_time_delivery_waits_then_decodes() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            let mut dec = FrameDecoder::new();
            for &b in &bytes[..bytes.len() - 1] {
                dec.push(&[b]);
                assert_eq!(dec.next_frame().unwrap(), None, "incomplete frame must wait");
            }
            dec.push(&bytes[bytes.len() - 1..]);
            assert_eq!(dec.next_frame().unwrap(), Some(frame));
        }
    }

    #[test]
    fn garbage_is_rejected_with_typed_errors() {
        let mut dec = FrameDecoder::new();
        dec.push(b"HTTP/1.1 200 OK\r\n");
        assert_eq!(dec.next_frame(), Err(NetError::BadMagic));

        let mut dec = FrameDecoder::new();
        let mut oversize = Vec::new();
        oversize.extend_from_slice(&NET_MAGIC);
        oversize.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        oversize.extend_from_slice(&0u32.to_le_bytes());
        dec.push(&oversize);
        assert_eq!(dec.next_frame(), Err(NetError::Oversized { len: MAX_FRAME_BYTES + 1 }));

        let mut corrupt = Frame::Seal.encode();
        let n = corrupt.len();
        corrupt[n - 1] ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.push(&corrupt);
        assert_eq!(dec.next_frame(), Err(NetError::BadCrc));

        // Valid header + CRC around an unknown kind.
        let mut body = 99u32.to_le_bytes().to_vec();
        body.extend_from_slice(b"x");
        let mut raw = Vec::new();
        raw.extend_from_slice(&NET_MAGIC);
        raw.extend_from_slice(&(body.len() as u32).to_le_bytes());
        raw.extend_from_slice(&crc32(&body).to_le_bytes());
        raw.extend_from_slice(&body);
        let mut dec = FrameDecoder::new();
        dec.push(&raw);
        assert_eq!(dec.next_frame(), Err(NetError::BadKind(99)));
    }

    #[test]
    fn bad_event_words_and_names_are_bad_payloads() {
        // An Events payload with an undecodable word (reserved tag 11).
        let mut body = KIND_EVENTS.to_le_bytes().to_vec();
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&(3u32 << 30).to_le_bytes());
        let mut raw = Vec::new();
        raw.extend_from_slice(&NET_MAGIC);
        raw.extend_from_slice(&(body.len() as u32).to_le_bytes());
        raw.extend_from_slice(&crc32(&body).to_le_bytes());
        raw.extend_from_slice(&body);
        let mut dec = FrameDecoder::new();
        dec.push(&raw);
        assert!(matches!(dec.next_frame(), Err(NetError::BadPayload(_))));

        for bad in ["", ".hidden", "-dash", "a/b", "x".repeat(65).as_str()] {
            assert!(!valid_source_name(bad), "{bad:?} must be rejected");
        }
        for good in ["web-01", "a", "svc.prod_7"] {
            assert!(valid_source_name(good), "{good:?} must be accepted");
        }
    }

    #[test]
    fn malformed_serve_payloads_are_bad_payloads() {
        // Helper: wrap a raw body (kind included) in a valid header+CRC.
        let wrap = |body: &[u8]| {
            let mut raw = Vec::new();
            raw.extend_from_slice(&NET_MAGIC);
            raw.extend_from_slice(&(body.len() as u32).to_le_bytes());
            raw.extend_from_slice(&crc32(body).to_le_bytes());
            raw.extend_from_slice(body);
            raw
        };
        let expect_bad = |body: Vec<u8>, what: &str| {
            let mut dec = FrameDecoder::new();
            dec.push(&wrap(&body));
            assert!(
                matches!(dec.next_frame(), Err(NetError::BadPayload(_))),
                "{what} must be a BadPayload"
            );
        };

        // Query with a truncated archive-name length.
        let mut body = KIND_QUERY.to_le_bytes().to_vec();
        body.extend_from_slice(&100u32.to_le_bytes());
        body.extend_from_slice(b"ab");
        expect_bad(body, "truncated name");

        // Query with an invalid archive name.
        let mut body = KIND_QUERY.to_le_bytes().to_vec();
        body.extend_from_slice(&7u32.to_le_bytes());
        body.extend_from_slice(b".hidden");
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&[0u8; 16]);
        expect_bad(body, "invalid archive name");

        // Well-formed Query followed by trailing garbage.
        let good = Frame::Query {
            req: QueryReq { archive: "a".into(), func: 0 },
            budget: BudgetSpec::default(),
        };
        let mut enc = good.encode();
        let body_start = FRAME_HEADER_LEN;
        let mut body = enc.split_off(body_start);
        body.push(0xEE);
        expect_bad(body, "trailing bytes");

        // Answer with an out-of-range coverage.
        let ans = Frame::Answer(Box::new(Answer {
            complete: true,
            stop_code: 0,
            coverage_bits: 2.0f64.to_bits(),
            text: String::new(),
            data: AnswerData::Slice { blocks: vec![] },
        }));
        let enc = ans.encode();
        expect_bad(enc[FRAME_HEADER_LEN..].to_vec(), "coverage > 1");

        // Currency with an element count far beyond the payload.
        let mut body = KIND_CURRENCY.to_le_bytes().to_vec();
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(b"a");
        for v in [0u32, 0, 0, 0, u32::MAX] {
            body.extend_from_slice(&v.to_le_bytes());
        }
        expect_bad(body, "absurd redef count");
    }

    #[test]
    fn framed_stream_over_in_memory_pipe() {
        use std::io::Cursor;
        let mut wire = Vec::new();
        for f in sample_frames() {
            wire.extend_from_slice(&f.encode());
        }
        struct Half(Cursor<Vec<u8>>);
        impl Read for Half {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.0.read(buf)
            }
        }
        impl Write for Half {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut fs = FramedStream::new(Half(Cursor::new(wire)));
        for expect in sample_frames() {
            assert_eq!(fs.recv().unwrap(), expect);
        }
        assert_eq!(fs.recv(), Err(NetError::Closed));
    }

    #[test]
    fn http_request_line_parses_and_rejects() {
        let mut req: &[u8] = b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n";
        assert_eq!(http_read_request_path(&mut req).unwrap(), "/metrics");
        // Bare LF line endings are tolerated.
        let mut req: &[u8] = b"GET /status HTTP/1.1\nAccept: */*\n\n";
        assert_eq!(http_read_request_path(&mut req).unwrap(), "/status");
        for bad in [
            &b"POST /metrics HTTP/1.0\r\n\r\n"[..],
            &b"GET metrics HTTP/1.0\r\n\r\n"[..],
            &b"GARBAGE\r\n\r\n"[..],
        ] {
            let mut r = bad;
            assert!(matches!(
                http_read_request_path(&mut r),
                Err(NetError::BadPayload(_))
            ));
        }
    }

    #[test]
    fn http_response_round_trips_through_the_parser() {
        let mut wire = Vec::new();
        http_write_response(&mut wire, 200, "OK", "application/json", b"{\"a\":1}").unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        let (status, body) = parse_http_response(&wire).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"a\":1}");
        assert!(parse_http_response(b"TWPN junk").is_err());
    }
}
