//! The raw (uncompacted) WPP representation: a flat stream of 4-byte event
//! words, exactly the form whose sizes Table 1 of the paper reports.
//!
//! The raw form also provides the *uncompacted access* baseline of Table 4:
//! [`RawWpp::scan_function`] must scan the entire stream to collect the path
//! traces of a single function.
//!
//! Serialized streams carry a `WPP0` magic header and — since the
//! integrity rework — a trailing `WPPZ` footer holding the event count
//! and a CRC32 of the event words, so a tracer killed mid-write leaves a
//! detectably incomplete file. [`RawWpp::read_from`] verifies the footer
//! when present (older footer-less streams still load);
//! [`RawWpp::read_salvage`] truncates a damaged stream to its longest
//! decodable event prefix instead of failing.

#![deny(clippy::unwrap_used)]

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

use twpp_ir::checksum::crc32;
use twpp_ir::{BlockId, FuncId};

use crate::event::WppEvent;

const MAGIC: [u8; 4] = *b"WPP0";
const FOOTER_MAGIC: [u8; 4] = *b"WPPZ";
/// The footer magic as a little-endian word.
const FOOTER_WORD: u32 = u32::from_le_bytes(FOOTER_MAGIC);
/// Footer length in words: magic, event count, CRC32.
const FOOTER_WORDS: usize = 3;

/// A raw whole program path: the complete control-flow trace of one
/// execution, stored as encoded 4-byte words.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RawWpp {
    words: Vec<u32>,
}

/// Byte-size breakdown of a raw WPP, mirroring Table 1's split of a WPP into
/// the dynamic call graph (enter/exit events) and the per-call traces (block
/// events).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct RawSizes {
    /// Bytes attributable to the dynamic call structure (enter/exit words).
    pub dcg_bytes: usize,
    /// Bytes attributable to the path traces (block words).
    pub trace_bytes: usize,
}

impl RawSizes {
    /// Total size in bytes.
    pub fn total(&self) -> usize {
        self.dcg_bytes + self.trace_bytes
    }
}

/// Errors produced while decoding a serialized raw WPP.
#[derive(Debug)]
#[non_exhaustive]
pub enum RawWppError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the `WPP0` magic.
    BadMagic,
    /// The stream length is not a whole number of words: it was cut
    /// mid-word (as opposed to ending cleanly between events).
    TruncatedWord,
    /// A word failed to decode as an event.
    BadWord(u32),
    /// The stream ends inside the `WPPZ` footer: the write was cut off
    /// after the footer magic but before the CRC.
    TruncatedFooter,
    /// The stream carries a `WPPZ` footer whose event count or CRC32
    /// does not match the words actually present: the trace was
    /// interrupted or damaged after writing began.
    FooterMismatch {
        /// The CRC stored in the footer.
        expected: u32,
        /// The CRC computed over the event words present.
        actual: u32,
    },
}

impl fmt::Display for RawWppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RawWppError::Io(e) => write!(f, "WPP stream I/O error: {e}"),
            RawWppError::BadMagic => f.write_str("missing WPP0 magic header"),
            RawWppError::TruncatedWord => f.write_str("WPP stream cut mid-word"),
            RawWppError::BadWord(w) => write!(f, "undecodable WPP word {w:#010x}"),
            RawWppError::TruncatedFooter => f.write_str("WPP stream cut inside its footer"),
            RawWppError::FooterMismatch { expected, actual } => write!(
                f,
                "WPP footer mismatch: stored CRC {expected:#010x}, computed {actual:#010x}"
            ),
        }
    }
}

impl Error for RawWppError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RawWppError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RawWppError {
    fn from(e: io::Error) -> RawWppError {
        RawWppError::Io(e)
    }
}

/// What [`RawWpp::read_salvage`] managed to keep from a damaged stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RawSalvage {
    /// The longest decodable event prefix.
    pub wpp: RawWpp,
    /// Whole words dropped from the tail (undecodable events; footer
    /// words are not counted).
    pub words_dropped: usize,
    /// Trailing bytes dropped because the stream was cut mid-word.
    pub bytes_dropped: usize,
    /// Whether a footer was present and verified against the kept words.
    pub footer_verified: bool,
}

impl RawSalvage {
    /// Whether the stream was fully intact (requires a verified footer,
    /// so legacy footer-less streams always report damage-unknown).
    pub fn is_clean(&self) -> bool {
        self.footer_verified && self.words_dropped == 0 && self.bytes_dropped == 0
    }
}

/// How the trailing `WPPZ` footer of a stream presented itself.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum FooterState {
    /// No footer: a legacy (pre-integrity) stream.
    Absent,
    /// Complete footer with the stored CRC32.
    Full(u32),
    /// The footer magic is present but the stream was cut before the CRC.
    Partial,
}

impl RawWpp {
    /// Creates an empty WPP.
    pub fn new() -> RawWpp {
        RawWpp::default()
    }

    /// Builds a raw WPP from decoded events.
    pub fn from_events(events: &[WppEvent]) -> RawWpp {
        RawWpp {
            words: events.iter().map(|e| e.encode()).collect(),
        }
    }

    /// Builds a raw WPP directly from encoded words.
    ///
    /// # Errors
    ///
    /// Returns [`RawWppError::BadWord`] if any word does not decode.
    pub fn from_words(words: Vec<u32>) -> Result<RawWpp, RawWppError> {
        if let Some(&bad) = words.iter().find(|w| WppEvent::decode(**w).is_none()) {
            return Err(RawWppError::BadWord(bad));
        }
        Ok(RawWpp { words })
    }

    /// The encoded words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Number of events.
    pub fn event_count(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Size in bytes of the uncompacted representation (4 bytes per event).
    pub fn byte_len(&self) -> usize {
        self.words.len() * 4
    }

    /// Decodes all events.
    pub fn events(&self) -> Vec<WppEvent> {
        self.words
            .iter()
            .map(|w| WppEvent::decode(*w).expect("RawWpp contains only valid words"))
            .collect()
    }

    /// Iterates over decoded events without allocating.
    pub fn iter(&self) -> impl Iterator<Item = WppEvent> + '_ {
        self.words
            .iter()
            .map(|w| WppEvent::decode(*w).expect("RawWpp contains only valid words"))
    }

    /// Splits the byte size into call-structure and trace components
    /// (Table 1).
    pub fn size_breakdown(&self) -> RawSizes {
        let mut sizes = RawSizes::default();
        for e in self.iter() {
            if e.is_block() {
                sizes.trace_bytes += 4;
            } else {
                sizes.dcg_bytes += 4;
            }
        }
        sizes
    }

    /// Number of calls (enter events) per function.
    pub fn call_counts(&self) -> HashMap<FuncId, u64> {
        let mut counts = HashMap::new();
        for e in self.iter() {
            if let WppEvent::Enter(f) = e {
                *counts.entry(f).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Collects the path traces of every call to `func` by scanning the
    /// **entire** stream — the uncompacted-access baseline of Table 4.
    ///
    /// A path trace contains the block events at the activation's own
    /// nesting level; blocks executed by callees belong to the callees'
    /// traces.
    pub fn scan_function(&self, func: FuncId) -> Vec<Vec<BlockId>> {
        let mut result = Vec::new();
        // Stack of activations; each entry is Some(trace) when the
        // activation belongs to `func`, None otherwise.
        let mut stack: Vec<Option<Vec<BlockId>>> = Vec::new();
        for e in self.iter() {
            match e {
                WppEvent::Enter(f) => {
                    stack.push(if f == func { Some(Vec::new()) } else { None });
                }
                WppEvent::Block(b) => {
                    if let Some(Some(trace)) = stack.last_mut() {
                        trace.push(b);
                    }
                }
                WppEvent::Exit => {
                    if let Some(Some(trace)) = stack.pop() {
                        result.push(trace);
                    }
                }
            }
        }
        // Unbalanced streams (e.g. truncated executions) still yield the
        // completed activations; drain any open ones of `func` too.
        while let Some(top) = stack.pop() {
            if let Some(trace) = top {
                result.push(trace);
            }
        }
        result
    }

    /// The CRC32 of the encoded event words (what the `WPPZ` footer
    /// stores).
    fn words_crc(words: &[u32]) -> u32 {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        crc32(&bytes)
    }

    /// Serializes the trace with a `WPP0` magic header and a trailing
    /// `WPPZ` footer (event count + CRC32), so interrupted writes are
    /// detectable.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`. A `&mut` reference can be passed
    /// as the writer.
    pub fn write_to<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writer.write_all(&MAGIC)?;
        for w in &self.words {
            writer.write_all(&w.to_le_bytes())?;
        }
        writer.write_all(&FOOTER_MAGIC)?;
        writer.write_all(&(self.words.len() as u32).to_le_bytes())?;
        writer.write_all(&RawWpp::words_crc(&self.words).to_le_bytes())?;
        Ok(())
    }

    /// Splits a word stream into events and a footer state. A complete
    /// footer is recognized only when the magic *and* the event count
    /// line up, so a legacy footer-less stream is never misread; a footer
    /// cut at a word boundary is detected so its magic is not mistaken
    /// for an event.
    fn split_footer(words: &[u32]) -> (&[u32], FooterState) {
        let n = words.len();
        if n >= FOOTER_WORDS
            && words[n - 3] == FOOTER_WORD
            && words[n - 2] as usize == n - FOOTER_WORDS
        {
            return (&words[..n - FOOTER_WORDS], FooterState::Full(words[n - 1]));
        }
        if n >= 2 && words[n - 2] == FOOTER_WORD && words[n - 1] as usize == n - 2 {
            return (&words[..n - 2], FooterState::Partial);
        }
        if n >= 1 && words[n - 1] == FOOTER_WORD {
            return (&words[..n - 1], FooterState::Partial);
        }
        (words, FooterState::Absent)
    }

    /// Deserializes a trace previously written with [`RawWpp::write_to`].
    /// The footer's CRC is verified when present; streams from before the
    /// footer was introduced still load.
    ///
    /// # Errors
    ///
    /// Returns a [`RawWppError`] for malformed input
    /// ([`RawWppError::FooterMismatch`] when the trace was interrupted or
    /// damaged after writing began) or I/O failures from `reader`. A
    /// `&mut` reference can be passed as the reader.
    pub fn read_from<R: Read>(mut reader: R) -> Result<RawWpp, RawWppError> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(RawWppError::BadMagic);
        }
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        if bytes.len() % 4 != 0 {
            return Err(RawWppError::TruncatedWord);
        }
        let words: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let (events, footer) = RawWpp::split_footer(&words);
        match footer {
            FooterState::Full(expected) => {
                let actual = RawWpp::words_crc(events);
                if expected != actual {
                    return Err(RawWppError::FooterMismatch { expected, actual });
                }
            }
            FooterState::Partial => return Err(RawWppError::TruncatedFooter),
            FooterState::Absent => {}
        }
        let events = events.to_vec();
        RawWpp::from_words(events)
    }

    /// Reads a possibly damaged stream, keeping the longest decodable
    /// event prefix instead of failing: trailing partial words, an
    /// unverifiable footer and undecodable tail words are all dropped and
    /// reported in the returned [`RawSalvage`].
    ///
    /// # Errors
    ///
    /// Only unusable input errors: a missing `WPP0` magic or an I/O
    /// failure.
    pub fn read_salvage<R: Read>(mut reader: R) -> Result<RawSalvage, RawWppError> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(RawWppError::BadMagic);
        }
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        let bytes_dropped = bytes.len() % 4;
        let words: Vec<u32> = bytes[..bytes.len() - bytes_dropped]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let (events, footer) = RawWpp::split_footer(&words);
        let footer_verified = matches!(
            footer,
            FooterState::Full(stored) if stored == RawWpp::words_crc(events)
        );
        // Keep the longest prefix of decodable events.
        let keep = events
            .iter()
            .position(|w| WppEvent::decode(*w).is_none())
            .unwrap_or(events.len());
        let words_dropped = events.len() - keep;
        let wpp = RawWpp {
            words: events[..keep].to_vec(),
        };
        Ok(RawSalvage {
            wpp,
            words_dropped,
            bytes_dropped,
            footer_verified: footer_verified && words_dropped == 0,
        })
    }
}

/// An incremental push-parser for serialized WPP streams: the streaming
/// counterpart of [`RawWpp::read_from`], built for ingestion paths that
/// see the bytes in arbitrary chunks (a socket, a tailed file, stdin)
/// and must not buffer the whole stream.
///
/// Feed chunks with [`WppStream::push`]; decoded events are appended to
/// the caller's vector as soon as they are unambiguous. Because the
/// `WPPZ` footer magic also decodes as a valid `Enter` event, the parser
/// holds back the last three words (the footer's length) until [`WppStream::finish`]
/// resolves whether they are the footer or trailing events — so the
/// emitted prefix never contains footer words, and the two entry points
/// classify every malformed stream identically (asserted by tests).
#[derive(Debug)]
pub struct WppStream {
    /// Bytes of the magic still outstanding (4 at birth, 0 once checked).
    magic_pending: usize,
    /// Partial word bytes carried between pushes (0..4 of them).
    partial: Vec<u8>,
    /// The last up-to-[`FOOTER_WORDS`] words, withheld from emission.
    holdback: Vec<u32>,
    /// Running CRC over the emitted event words.
    crc: twpp_ir::checksum::Crc32,
    /// Events emitted so far.
    emitted: u64,
    /// Total bytes accepted by [`WppStream::push`].
    consumed: u64,
}

impl Default for WppStream {
    fn default() -> WppStream {
        WppStream::new()
    }
}

impl WppStream {
    /// A parser expecting the `WPP0` magic first.
    pub fn new() -> WppStream {
        WppStream {
            magic_pending: MAGIC.len(),
            partial: Vec::new(),
            holdback: Vec::new(),
            crc: twpp_ir::checksum::Crc32::new(),
            emitted: 0,
            consumed: 0,
        }
    }

    /// Events emitted so far (excludes held-back tail words).
    pub fn events_emitted(&self) -> u64 {
        self.emitted
    }

    /// Total bytes pushed into the parser.
    pub fn bytes_consumed(&self) -> u64 {
        self.consumed
    }

    /// Consumes one chunk, appending newly-unambiguous events to `out`.
    ///
    /// # Errors
    ///
    /// [`RawWppError::BadMagic`] if the stream does not open with `WPP0`;
    /// [`RawWppError::BadWord`] the moment an undecodable non-tail word
    /// is seen. After an error the parser is poisoned and must be
    /// discarded.
    pub fn push(&mut self, bytes: &[u8], out: &mut Vec<WppEvent>) -> Result<(), RawWppError> {
        self.consumed += bytes.len() as u64;
        let mut rest = bytes;
        if self.magic_pending > 0 {
            let take = rest.len().min(self.magic_pending);
            let at = MAGIC.len() - self.magic_pending;
            if rest[..take] != MAGIC[at..at + take] {
                return Err(RawWppError::BadMagic);
            }
            self.magic_pending -= take;
            rest = &rest[take..];
        }
        // The emitted words' bytes, checksummed in one call at the end.
        let mut run = Vec::with_capacity(rest.len());
        for &b in rest {
            self.partial.push(b);
            if self.partial.len() == 4 {
                let word =
                    u32::from_le_bytes([self.partial[0], self.partial[1], self.partial[2], self.partial[3]]);
                self.partial.clear();
                self.holdback.push(word);
                if self.holdback.len() > FOOTER_WORDS {
                    let ready = self.holdback.remove(0);
                    match WppEvent::decode(ready) {
                        Some(e) => {
                            run.extend_from_slice(&ready.to_le_bytes());
                            self.emitted += 1;
                            out.push(e);
                        }
                        None => return Err(RawWppError::BadWord(ready)),
                    }
                }
            }
        }
        self.crc.update(&run);
        Ok(())
    }

    /// Ends the stream: resolves the held-back tail against the footer
    /// grammar of [`RawWpp::read_from`], appending any trailing events to
    /// `out`. Returns `true` if a complete footer was present and its
    /// CRC verified, `false` for a legacy footer-less stream.
    ///
    /// # Errors
    ///
    /// Exactly the classifications of [`RawWpp::read_from`]: `Io`
    /// (unexpected EOF before the magic completed), `TruncatedWord`,
    /// `TruncatedFooter`, `FooterMismatch`, or `BadWord` in the tail.
    pub fn finish(self, out: &mut Vec<WppEvent>) -> Result<bool, RawWppError> {
        if self.magic_pending > 0 {
            return Err(RawWppError::Io(io::ErrorKind::UnexpectedEof.into()));
        }
        if !self.partial.is_empty() {
            return Err(RawWppError::TruncatedWord);
        }
        let h = &self.holdback;
        let n = self.emitted + h.len() as u64;
        // Mirror RawWpp::split_footer over the virtual full word vector:
        // only the last FOOTER_WORDS words are materialized, but every
        // pattern it matches lives inside them.
        if n >= FOOTER_WORDS as u64
            && h.len() == FOOTER_WORDS
            && h[0] == FOOTER_WORD
            && u64::from(h[1]) == n - FOOTER_WORDS as u64
        {
            let expected = h[2];
            let actual = self.crc.finalize();
            if expected != actual {
                return Err(RawWppError::FooterMismatch { expected, actual });
            }
            return Ok(true);
        }
        if n >= 2 && h.len() >= 2 {
            let last = h[h.len() - 1];
            let prev = h[h.len() - 2];
            if prev == FOOTER_WORD && u64::from(last) == n - 2 {
                return Err(RawWppError::TruncatedFooter);
            }
        }
        if h.last() == Some(&FOOTER_WORD) {
            return Err(RawWppError::TruncatedFooter);
        }
        // Legacy footer-less stream: the tail words are plain events.
        for &word in h {
            match WppEvent::decode(word) {
                Some(e) => out.push(e),
                None => return Err(RawWppError::BadWord(word)),
            }
        }
        Ok(false)
    }
}

impl FromIterator<WppEvent> for RawWpp {
    fn from_iter<I: IntoIterator<Item = WppEvent>>(iter: I) -> RawWpp {
        RawWpp {
            words: iter.into_iter().map(|e| e.encode()).collect(),
        }
    }
}

impl Extend<WppEvent> for RawWpp {
    fn extend<I: IntoIterator<Item = WppEvent>>(&mut self, iter: I) {
        self.words.extend(iter.into_iter().map(|e| e.encode()));
    }
}

impl fmt::Display for RawWpp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for e in self.iter() {
            if !first {
                f.write_str(".")?;
            }
            write!(f, "{e}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn f(i: usize) -> FuncId {
        FuncId::from_index(i)
    }

    fn b(i: u32) -> BlockId {
        BlockId::new(i)
    }

    fn sample() -> RawWpp {
        // main: 1 . f(1.2) . 2 . f(1.3) . 3
        RawWpp::from_events(&[
            WppEvent::Enter(f(0)),
            WppEvent::Block(b(1)),
            WppEvent::Enter(f(1)),
            WppEvent::Block(b(1)),
            WppEvent::Block(b(2)),
            WppEvent::Exit,
            WppEvent::Block(b(2)),
            WppEvent::Enter(f(1)),
            WppEvent::Block(b(1)),
            WppEvent::Block(b(3)),
            WppEvent::Exit,
            WppEvent::Block(b(3)),
            WppEvent::Exit,
        ])
    }

    #[test]
    fn scan_function_collects_per_call_traces() {
        let wpp = sample();
        assert_eq!(
            wpp.scan_function(f(1)),
            vec![vec![b(1), b(2)], vec![b(1), b(3)]]
        );
        assert_eq!(wpp.scan_function(f(0)), vec![vec![b(1), b(2), b(3)]]);
        assert!(wpp.scan_function(f(9)).is_empty());
    }

    #[test]
    fn size_breakdown_splits_dcg_and_traces() {
        let wpp = sample();
        let sizes = wpp.size_breakdown();
        assert_eq!(sizes.dcg_bytes, 6 * 4); // 3 enters + 3 exits
        assert_eq!(sizes.trace_bytes, 7 * 4);
        assert_eq!(sizes.total(), wpp.byte_len());
    }

    #[test]
    fn call_counts() {
        let wpp = sample();
        let counts = wpp.call_counts();
        assert_eq!(counts[&f(0)], 1);
        assert_eq!(counts[&f(1)], 2);
    }

    #[test]
    fn io_round_trip() {
        let wpp = sample();
        let mut buf = Vec::new();
        wpp.write_to(&mut buf).unwrap();
        let back = RawWpp::read_from(&buf[..]).unwrap();
        assert_eq!(back, wpp);
    }

    #[test]
    fn read_rejects_bad_magic_and_truncation() {
        assert!(matches!(
            RawWpp::read_from(&b"NOPE"[..]),
            Err(RawWppError::BadMagic)
        ));
        let mut buf = Vec::new();
        sample().write_to(&mut buf).unwrap();
        buf.pop();
        assert!(matches!(
            RawWpp::read_from(&buf[..]),
            Err(RawWppError::TruncatedWord)
        ));
    }

    #[test]
    fn footer_detects_interrupted_writes() {
        let wpp = sample();
        let mut buf = Vec::new();
        wpp.write_to(&mut buf).unwrap();
        // Cut the CRC word: the footer magic is found but unverifiable.
        let cut_crc = &buf[..buf.len() - 4];
        assert!(matches!(
            RawWpp::read_from(cut_crc),
            Err(RawWppError::TruncatedFooter)
        ));
        // Cut the count and CRC words: same.
        let cut_count = &buf[..buf.len() - 8];
        assert!(matches!(
            RawWpp::read_from(cut_count),
            Err(RawWppError::TruncatedFooter)
        ));
        // Flip an event byte: the CRC no longer matches.
        let mut flipped = buf.clone();
        flipped[6] ^= 0x01;
        assert!(matches!(
            RawWpp::read_from(&flipped[..]),
            Err(RawWppError::FooterMismatch { .. })
        ));
    }

    #[test]
    fn legacy_footerless_streams_still_load() {
        let wpp = sample();
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        for w in wpp.words() {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(RawWpp::read_from(&buf[..]).unwrap(), wpp);
    }

    #[test]
    fn salvage_keeps_longest_decodable_prefix() {
        let wpp = sample();
        let mut buf = Vec::new();
        wpp.write_to(&mut buf).unwrap();
        // Intact stream salvages cleanly.
        let s = RawWpp::read_salvage(&buf[..]).unwrap();
        assert!(s.is_clean(), "{s:?}");
        assert_eq!(s.wpp, wpp);
        // Cut mid-word inside the events: partial word dropped, footer
        // gone, the whole-event prefix survives.
        let cut = &buf[..4 + 5 * 4 + 2];
        let s = RawWpp::read_salvage(cut).unwrap();
        assert!(!s.is_clean());
        assert_eq!(s.bytes_dropped, 2);
        assert_eq!(s.wpp.words(), &wpp.words()[..5]);
        // An undecodable word in the middle truncates to before it.
        let mut bad = Vec::new();
        bad.extend_from_slice(&MAGIC);
        for w in &wpp.words()[..3] {
            bad.extend_from_slice(&w.to_le_bytes());
        }
        bad.extend_from_slice(&(3u32 << 30).to_le_bytes());
        for w in &wpp.words()[3..] {
            bad.extend_from_slice(&w.to_le_bytes());
        }
        let s = RawWpp::read_salvage(&bad[..]).unwrap();
        assert_eq!(s.wpp.words(), &wpp.words()[..3]);
        assert!(s.words_dropped > 0);
        // Garbage without the magic is rejected outright.
        assert!(matches!(
            RawWpp::read_salvage(&b"JUNKJUNK"[..]),
            Err(RawWppError::BadMagic)
        ));
    }

    #[test]
    fn from_words_validates() {
        assert!(RawWpp::from_words(vec![3 << 30]).is_err());
        assert!(RawWpp::from_words(vec![WppEvent::Exit.encode()]).is_ok());
    }

    #[test]
    fn display_matches_paper_style() {
        let wpp = RawWpp::from_events(&[
            WppEvent::Block(b(1)),
            WppEvent::Block(b(2)),
            WppEvent::Exit,
        ]);
        assert_eq!(wpp.to_string(), "1.2.exit");
    }

    /// Classifies a byte stream through WppStream at the given chunk
    /// size, mirroring the Result shape of `RawWpp::read_from`.
    fn stream_parse(bytes: &[u8], chunk: usize) -> Result<(Vec<WppEvent>, bool), RawWppError> {
        let mut parser = WppStream::new();
        let mut out = Vec::new();
        for piece in bytes.chunks(chunk.max(1)) {
            parser.push(piece, &mut out)?;
        }
        let verified = parser.finish(&mut out)?;
        Ok((out, verified))
    }

    #[test]
    fn wpp_stream_matches_read_from_on_clean_streams() {
        let wpp = sample();
        let mut buf = Vec::new();
        wpp.write_to(&mut buf).unwrap();
        for chunk in [1, 2, 3, 5, 7, buf.len()] {
            let (events, verified) = stream_parse(&buf, chunk).unwrap();
            assert!(verified);
            assert_eq!(events, wpp.events(), "chunk size {chunk}");
        }
        // Legacy footer-less stream: same events, unverified.
        let legacy = &buf[..buf.len() - FOOTER_WORDS * 4];
        for chunk in [1, 4, legacy.len()] {
            let (events, verified) = stream_parse(legacy, chunk).unwrap();
            assert!(!verified);
            assert_eq!(events, wpp.events());
        }
        // Empty trace with footer.
        let mut empty = Vec::new();
        RawWpp::new().write_to(&mut empty).unwrap();
        let (events, verified) = stream_parse(&empty, 1).unwrap();
        assert!(verified);
        assert!(events.is_empty());
    }

    #[test]
    fn wpp_stream_classifies_damage_like_read_from() {
        let wpp = sample();
        let mut buf = Vec::new();
        wpp.write_to(&mut buf).unwrap();

        // Every truncation point classifies identically to read_from.
        for cut in 0..buf.len() {
            let prefix = &buf[..cut];
            let batch = RawWpp::read_from(prefix);
            let streamed = stream_parse(prefix, 3);
            match (&batch, &streamed) {
                (Ok(w), Ok((events, _))) => assert_eq!(&w.events(), events, "cut {cut}"),
                (Err(a), Err(b)) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "cut {cut}: batch {a:?} vs streamed {b:?}"
                ),
                _ => panic!("cut {cut}: batch {batch:?} vs streamed {streamed:?}"),
            }
        }

        // Flipped event byte → FooterMismatch from both.
        let mut flipped = buf.clone();
        flipped[6] ^= 0x01;
        assert!(matches!(
            stream_parse(&flipped, 2),
            Err(RawWppError::FooterMismatch { .. })
        ));

        // Bad magic and an undecodable interior word.
        assert!(matches!(
            stream_parse(b"JUNKJUNKJUNK", 5),
            Err(RawWppError::BadMagic)
        ));
        let mut bad = Vec::new();
        bad.extend_from_slice(&MAGIC);
        bad.extend_from_slice(&(3u32 << 30).to_le_bytes());
        for w in sample().words() {
            bad.extend_from_slice(&w.to_le_bytes());
        }
        assert!(matches!(
            stream_parse(&bad, 4),
            Err(RawWppError::BadWord(_))
        ));
    }

    #[test]
    fn wpp_stream_holds_back_footer_lookalike_events() {
        // FOOTER_WORD decodes as a valid Enter event; a stream whose
        // *events* include it must still round-trip.
        let lookalike = WppEvent::decode(FOOTER_WORD).expect("footer word is a decodable event");
        let wpp = RawWpp::from_events(&[
            WppEvent::Enter(f(0)),
            lookalike,
            WppEvent::Block(b(1)),
            lookalike,
            WppEvent::Exit,
        ]);
        let mut buf = Vec::new();
        wpp.write_to(&mut buf).unwrap();
        for chunk in [1, 4, 9] {
            let (events, verified) = stream_parse(&buf, chunk).unwrap();
            assert!(verified);
            assert_eq!(events, wpp.events());
        }
    }

    #[test]
    fn scan_handles_unbalanced_stream() {
        // Enter without matching exit (truncated run).
        let wpp = RawWpp::from_events(&[
            WppEvent::Enter(f(0)),
            WppEvent::Block(b(1)),
            WppEvent::Enter(f(1)),
            WppEvent::Block(b(4)),
        ]);
        assert_eq!(wpp.scan_function(f(1)), vec![vec![b(4)]]);
        assert_eq!(wpp.scan_function(f(0)), vec![vec![b(1)]]);
    }
}
