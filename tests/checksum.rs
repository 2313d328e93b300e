//! The CRC32 kernel behind every integrity check (archive regions,
//! segments, WAL records, net frames): its known values, that any split
//! of the input hashes like one call, and that a flipped bit in a saved
//! archive frame is caught on the lazy read path.

use twpp_repro::twpp::lazy::LazyArchive;
use twpp_repro::twpp::{compact, ArchiveError, TwppArchive};
use twpp_repro::twpp_ir::checksum::{crc32, Crc32};
use twpp_repro::twpp_ir::{BlockId, FuncId};
use twpp_repro::twpp_tracer::{RawWpp, WppEvent};

const FRAME_HEADER_LEN: usize = 28;

#[test]
fn crc32_matches_the_iso_hdlc_check_values() {
    assert_eq!(crc32(b""), 0x0000_0000);
    assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    assert_eq!(crc32(b"abc"), 0x3524_41C2);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    // 1 MiB of zeros: long enough to run the 16-byte step many times.
    assert_eq!(crc32(&vec![0u8; 1 << 20]), 0xA738_EA1C);
}

#[test]
fn split_streaming_equals_one_shot() {
    let data: Vec<u8> = (0..5000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
        .collect();
    let whole = crc32(&data);
    for step in [1, 3, 4, 15, 16, 17, 100, 4096] {
        let mut h = Crc32::new();
        for chunk in data.chunks(step) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), whole, "chunks of {step}");
    }
    for cut in 0..=64 {
        let mut h = Crc32::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        assert_eq!(h.finalize(), whole, "cut at {cut}");
    }
}

#[test]
fn flipped_bit_in_a_saved_frame_fails_the_lazy_read() {
    let f = FuncId::from_index;
    let b = BlockId::new;
    let mut events = vec![WppEvent::Enter(f(0)), WppEvent::Block(b(1))];
    for callee in 1..4usize {
        for round in 0..3u32 {
            events.push(WppEvent::Enter(f(callee)));
            for step in 0..(callee as u32 + 2) {
                events.push(WppEvent::Block(b(10 * callee as u32 + step + round % 2)));
            }
            events.push(WppEvent::Exit);
        }
    }
    events.push(WppEvent::Exit);
    let compacted = compact(&RawWpp::from_events(&events)).expect("sample WPP compacts");
    let archive = TwppArchive::from_compacted(&compacted);
    let mut bytes = archive.as_bytes().to_vec();

    let (_, report) = TwppArchive::recover(&bytes).expect("clean archive recovers");
    assert!(report.is_clean(), "fixture must start clean:\n{report}");
    let victim = report
        .functions
        .iter()
        .find(|v| v.byte_len > 1)
        .expect("a frame with a payload");
    let (func, flip_at) = (victim.func, victim.offset + FRAME_HEADER_LEN + 1);
    bytes[flip_at] ^= 0x10;

    let dir = std::env::temp_dir().join(format!("twpp-checksum-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("flipped.twpa");
    std::fs::write(&path, &bytes).expect("write archive");

    let lazy = LazyArchive::open(&path).expect("open reads only the footer");
    match lazy.read_function(func) {
        Err(ArchiveError::ChecksumMismatch {
            region,
            expected,
            actual,
        }) => {
            assert_eq!(region, "function region");
            assert_ne!(expected, actual);
        }
        other => panic!("flipped frame of {func:?} read as {other:?}"),
    }
    for other in lazy.function_ids().into_iter().filter(|&g| g != func) {
        let rec = lazy
            .read_function(other)
            .expect("untouched frames still read");
        assert_eq!(*rec, archive.read_function(other).expect("clean read"));
    }
    std::fs::remove_dir_all(&dir).ok();
}
