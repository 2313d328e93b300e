//! Fault-injection harness for the crash-tolerant v3 archive container.
//!
//! Simulates the failure modes the format is designed to survive —
//! truncation at and around every region boundary (a crash mid-write),
//! single-bit flips inside each checksummed region (media corruption), and
//! swapped function-table entries (a hostile or scrambled index) — and
//! checks the contract: decoding either fails with a typed error or
//! `TwppArchive::recover` salvages every untouched function. Nothing ever
//! panics.
//!
//! The three strict readers — `TwppArchive::from_bytes`, `LazyArchive`
//! over a file, and `TwppArchive::read_function_from_file` — share one
//! trust boundary: each damaged image must be refused by all three, or
//! opened by all three with the same functions failing.

use std::collections::HashMap;
use std::path::PathBuf;

use twpp_repro::twpp::{compact, FunctionRecord, LazyArchive, TwppArchive};
use twpp_repro::twpp_ir::{BlockId, FuncId};
use twpp_repro::twpp_tracer::{RawWpp, WppEvent};

const FRAME_HEADER_LEN: usize = 28;
const FOOTER_ENTRY_BYTES: usize = 28;

/// A WPP touching four functions with distinct path shapes, so each
/// function region in the archive carries distinguishable content.
fn sample_wpp() -> RawWpp {
    let f = FuncId::from_index;
    let b = BlockId::new;
    let mut events = vec![WppEvent::Enter(f(0)), WppEvent::Block(b(1))];
    for round in 0..3u32 {
        for callee in 1..4usize {
            events.push(WppEvent::Enter(f(callee)));
            for step in 0..(callee as u32 + 2) {
                events.push(WppEvent::Block(b(10 * callee as u32 + step + round % 2)));
            }
            events.push(WppEvent::Exit);
            events.push(WppEvent::Block(b(2)));
        }
    }
    events.push(WppEvent::Exit);
    RawWpp::from_events(&events)
}

fn build_archive() -> TwppArchive {
    let compacted = compact(&sample_wpp()).expect("sample WPP compacts");
    let names: HashMap<FuncId, String> = (0..4)
        .map(|i| (FuncId::from_index(i), format!("fn{i}")))
        .collect();
    TwppArchive::from_compacted_named(&compacted, &names)
}

/// Reference records, read from the pristine archive.
fn baseline(archive: &TwppArchive) -> HashMap<FuncId, FunctionRecord> {
    archive
        .function_ids()
        .into_iter()
        .map(|func| (func, archive.read_function(func).expect("clean read")))
        .collect()
}

/// Frame layout of a clean v3 archive: `(func, frame_start, frame_end)`,
/// sorted by offset, taken from a clean `recover` report.
fn frame_spans(bytes: &[u8]) -> Vec<(FuncId, usize, usize)> {
    let (_, report) = TwppArchive::recover(bytes).expect("clean archive recovers");
    assert!(report.is_clean(), "fixture must start clean:\n{report}");
    let mut spans: Vec<(FuncId, usize, usize)> = report
        .functions
        .iter()
        .map(|v| (v.func, v.offset, v.offset + FRAME_HEADER_LEN + v.byte_len))
        .collect();
    spans.sort_by_key(|&(_, start, _)| start);
    spans
}

/// Writes `bytes` to a temp file unique to `tag` (tests run in parallel).
fn temp_archive(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!("twpp-fault-{tag}-{}.twpa", std::process::id()));
    std::fs::write(&path, bytes).expect("write temp archive");
    path
}

/// Asserts that every strict reader refuses `bytes` at open.
fn assert_all_readers_refuse(tag: &str, bytes: &[u8], funcs: &[FuncId], what: &str) {
    assert!(
        TwppArchive::from_bytes(bytes.to_vec()).is_err(),
        "from_bytes accepted {what}"
    );
    let path = temp_archive(tag, bytes);
    assert!(LazyArchive::open(&path).is_err(), "lazy open accepted {what}");
    for &func in funcs {
        assert!(
            TwppArchive::read_function_from_file(&path, func).is_err(),
            "read_function_from_file accepted {what} for {func:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Asserts that every strict reader opens `bytes`, that `victim` fails to
/// read, and that every other function reads as in `reference`.
fn assert_only_victim_fails(
    tag: &str,
    bytes: &[u8],
    reference: &HashMap<FuncId, FunctionRecord>,
    victim: FuncId,
    what: &str,
) {
    let eager = TwppArchive::from_bytes(bytes.to_vec())
        .unwrap_or_else(|e| panic!("from_bytes refused {what}: {e}"));
    let path = temp_archive(tag, bytes);
    let lazy = LazyArchive::open(&path).unwrap_or_else(|e| panic!("lazy open refused {what}: {e}"));
    for (&func, expected) in reference {
        let reads = [
            ("from_bytes", eager.read_function(func)),
            ("lazy", lazy.read_function(func).map(|r| (*r).clone())),
            ("from_file", TwppArchive::read_function_from_file(&path, func)),
        ];
        for (reader, got) in reads {
            if func == victim {
                assert!(got.is_err(), "{reader}: {what}: victim {func:?} read clean");
            } else {
                let got = got.unwrap_or_else(|e| panic!("{reader}: {what}: {func:?} lost: {e}"));
                assert_eq!(&got, expected, "{reader}: {what}: {func:?} drifted");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncation_at_every_region_boundary_is_survivable() {
    let archive = build_archive();
    let reference = baseline(&archive);
    let bytes = archive.as_bytes().to_vec();
    let spans = frame_spans(&bytes);

    // Cut at each frame boundary and one byte either side of it, plus the
    // extremes of the file.
    let mut cuts: Vec<usize> = Vec::new();
    for &(_, start, end) in &spans {
        for c in [start.saturating_sub(1), start, start + 1] {
            cuts.push(c);
        }
        for c in [end - 1, end, end + 1] {
            cuts.push(c);
        }
    }
    cuts.extend([0, 1, 4, bytes.len() - 1]);
    cuts.retain(|&c| c < bytes.len());
    cuts.sort_unstable();
    cuts.dedup();

    let funcs: Vec<FuncId> = reference.keys().copied().collect();
    for cut in cuts {
        let truncated = &bytes[..cut];
        // Strict decoding must reject every truncation: the commit footer
        // is gone, so the write never "happened".
        let what = format!("a truncation at byte {cut}");
        assert_all_readers_refuse("truncation", truncated, &funcs, &what);
        // Salvage must never panic, and every frame that lies wholly
        // before the cut must come back intact.
        let Ok((salvaged, report)) = TwppArchive::recover(truncated) else {
            // Unrecoverable only when even the magic is gone.
            assert!(cut < 8, "recover gave up at cut {cut} with header intact");
            continue;
        };
        assert!(!report.is_clean(), "cut {cut} reported clean");
        assert!(!report.committed, "cut {cut} reported committed");
        for &(func, _, end) in &spans {
            if end <= cut {
                let rec = salvaged.read_function(func).unwrap_or_else(|e| {
                    panic!("cut {cut}: intact function {func:?} lost: {e}")
                });
                assert_eq!(rec, reference[&func], "cut {cut}: content drift");
            }
        }
    }
}

#[test]
fn single_bit_flips_in_each_region_are_detected_and_contained() {
    let archive = build_archive();
    let reference = baseline(&archive);
    let bytes = archive.as_bytes().to_vec();
    let spans = frame_spans(&bytes);

    for &(victim, start, end) in &spans {
        // Flip a bit in the frame header and one mid-payload.
        for pos in [start + 5, start + FRAME_HEADER_LEN + (end - start - FRAME_HEADER_LEN) / 2]
        {
            let mut dirty = bytes.clone();
            dirty[pos] ^= 0x10;
            // Strict readers open the archive; only the victim fails.
            assert_only_victim_fails("frame-flip", &dirty, &reference, victim, &format!("a flip at {pos}"));
            let (salvaged, report) =
                TwppArchive::recover(&dirty).expect("flip inside a frame stays recoverable");
            assert!(!report.is_clean(), "flip at {pos} went unnoticed");
            for verdict in &report.functions {
                if verdict.func == victim {
                    assert!(
                        !verdict.status.is_ok(),
                        "flip at {pos} in {victim:?} not attributed: {report}"
                    );
                } else {
                    assert!(
                        verdict.status.is_ok(),
                        "flip at {pos} spilled onto {:?}: {report}",
                        verdict.func
                    );
                }
            }
            // Every untouched function survives with identical content.
            for (&func, expected) in &reference {
                if func == victim {
                    continue;
                }
                assert_eq!(
                    &salvaged.read_function(func).expect("survivor readable"),
                    expected,
                    "flip at {pos}: survivor {func:?} drifted"
                );
            }
        }
    }
}

#[test]
fn single_bit_flips_in_each_metadata_region_are_refused_at_open() {
    let archive = build_archive();
    let bytes = archive.as_bytes().to_vec();
    let funcs = archive.function_ids();
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
    // Header | DCG (padded to 4) | DCG CRC | name table | names CRC | ...
    let dcg_len = word(8);
    let names_start = 20 + dcg_len.next_multiple_of(4) + 4;
    assert!(dcg_len >= 2 && word(12) > 0, "fixture needs a DCG and names");
    let footer_start = bytes.len() - (4 + funcs.len() * FOOTER_ENTRY_BYTES + 16);
    for (region, pos) in [
        ("header", 9),
        ("DCG", 21),
        ("name table", names_start + 1),
        ("footer", footer_start + 6),
    ] {
        let mut dirty = bytes.clone();
        dirty[pos] ^= 0x10;
        assert_all_readers_refuse("meta-flip", &dirty, &funcs, &format!("a {region} flip at {pos}"));
    }
}

#[test]
fn swapped_function_table_entries_are_rejected_then_salvaged() {
    let archive = build_archive();
    let reference = baseline(&archive);
    let mut bytes = archive.as_bytes().to_vec();
    let n = reference.len();
    assert!(n >= 2);

    // The footer: magic | n entries | 16-byte tail. Swap the first two
    // 28-byte entries in place.
    let footer_start = bytes.len() - (4 + n * FOOTER_ENTRY_BYTES + 16);
    let a = footer_start + 4;
    let b = a + FOOTER_ENTRY_BYTES;
    for i in 0..FOOTER_ENTRY_BYTES {
        bytes.swap(a + i, b + i);
    }

    // Strict decoding refuses the scrambled index outright…
    assert!(TwppArchive::from_bytes(bytes.clone()).is_err());

    // …and salvage ignores the index, rescans the frames, and recovers
    // every function with its true identity and content.
    let (salvaged, report) = TwppArchive::recover(&bytes).expect("frames are untouched");
    assert!(!report.is_clean());
    assert_eq!(report.salvaged_functions(), n, "{report}");
    for (&func, expected) in &reference {
        assert_eq!(&salvaged.read_function(func).expect("readable"), expected);
    }
    // The salvaged copy re-validates end to end.
    let (_, round2) = TwppArchive::recover(salvaged.as_bytes()).expect("rebuilt archive parses");
    assert!(round2.is_clean(), "{round2}");
}

#[test]
fn raw_trace_truncation_at_every_byte_never_panics() {
    let wpp = sample_wpp();
    let mut bytes = Vec::new();
    wpp.write_to(&mut bytes).expect("in-memory write");

    let originals: Vec<WppEvent> = wpp.iter().collect();
    for cut in 0..bytes.len() {
        // Strict reader: typed error or a stream that decodes event by
        // event — never a panic.
        let _ = RawWpp::read_from(&bytes[..cut]);
        // Salvage reader: always a prefix of the true event stream.
        if let Ok(salvage) = RawWpp::read_salvage(&bytes[..cut]) {
            let got: Vec<WppEvent> = salvage.wpp.iter().collect();
            assert!(
                got.len() <= originals.len() && got[..] == originals[..got.len()],
                "cut {cut}: salvage is not a prefix"
            );
        }
    }

    // The full stream is clean and lossless.
    let full = RawWpp::read_salvage(&bytes[..]).expect("full stream loads");
    assert!(full.is_clean());
    assert_eq!(full.wpp, wpp);
}
