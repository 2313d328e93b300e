//! Decoder robustness: every binary decoder in the workspace must reject
//! arbitrary or corrupted input with an error — never panic. These are
//! fuzz-style property tests over random byte/word soup and over random
//! corruptions of valid encodings.

use proptest::prelude::*;

use std::mem::discriminant;

use twpp_repro::twpp::{compact, lzw, Dcg, LazyArchive, TimestampedTrace, TsSet, TwppArchive};
use twpp_repro::twpp_sequitur;
use twpp_repro::twpp_tracer::RawWpp;

/// The lazy reader over a file holding `bytes` never panics and agrees
/// with the eager reader over the bytes: both accept or both refuse (with
/// the same error variant), list the same functions, and read each one
/// to an equal record or the same error variant.
fn assert_lazy_agrees_with_eager(tag: &str, bytes: &[u8]) {
    let path = std::env::temp_dir().join(format!("twpp-fuzz-{tag}-{}.twpa", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    match (
        TwppArchive::from_bytes(bytes.to_vec()),
        LazyArchive::open(&path),
    ) {
        (Ok(eager), Ok(lazy)) => {
            assert_eq!(lazy.function_ids(), eager.function_ids());
            for func in eager.function_ids() {
                match (eager.read_function(func), lazy.read_function(func)) {
                    (Ok(e), Ok(l)) => assert_eq!(*l, e),
                    (Err(e), Err(l)) => {
                        assert_eq!(discriminant(&e), discriminant(&l), "{e} vs {l}")
                    }
                    (e, l) => panic!("{func:?}: eager {e:?}, lazy {l:?}"),
                }
            }
        }
        (Err(e), Err(l)) => assert_eq!(discriminant(&e), discriminant(&l), "{e} vs {l}"),
        (e, l) => panic!("eager {:?}, lazy {:?}", e.err(), l.err()),
    }
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn raw_wpp_reader_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = RawWpp::read_from(&bytes[..]);
    }

    #[test]
    fn archive_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = TwppArchive::from_bytes(bytes);
    }

    #[test]
    fn lzw_decompressor_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = lzw::decompress(&bytes);
    }

    #[test]
    fn tsset_wire_decoder_never_panics(words in prop::collection::vec(any::<i32>(), 0..64)) {
        let _ = TsSet::from_wire(&words);
    }

    #[test]
    fn dcg_decoder_never_panics(words in prop::collection::vec(any::<u32>(), 0..64)) {
        let _ = Dcg::from_words(&words);
    }

    #[test]
    fn timestamped_trace_decoder_never_panics(
        words in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let mut pos = 0;
        let _ = TimestampedTrace::from_words(&words, &mut pos);
    }

    #[test]
    fn sequitur_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = twpp_sequitur::decode(&bytes);
    }

    #[test]
    fn corrupted_archives_error_not_panic(
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 1..8),
    ) {
        // Build a small valid archive, then flip random bytes.
        let wpp = sample_wpp();
        let compacted = compact(&wpp).unwrap();
        let archive = TwppArchive::from_compacted(&compacted);
        let mut bytes = archive.as_bytes().to_vec();
        for (pos, val) in flips {
            let len = bytes.len();
            bytes[pos % len] ^= val;
        }
        // Either parses (and then every function read must also not
        // panic) or errors out, in the lazy reader exactly as in the eager one.
        assert_lazy_agrees_with_eager("v3", &bytes);
        if let Ok(parsed) = TwppArchive::from_bytes(bytes) {
            for func in parsed.function_ids() {
                let _ = parsed.read_function(func);
            }
            let _ = parsed.read_dcg();
        }
    }

    #[test]
    fn archive_recover_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // Salvage over arbitrary byte soup: typed error or a report, never
        // a panic, never unbounded allocation.
        let _ = TwppArchive::recover(&bytes);
    }

    #[test]
    fn raw_salvage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = RawWpp::read_salvage(&bytes[..]);
    }

    #[test]
    fn recover_output_always_revalidates(
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 1..8),
    ) {
        // Whatever corruption hits a valid archive, recovery (the library
        // half of `twpp fsck --repair`) either refuses or emits an archive
        // that is itself clean — repairs converge in one pass.
        let wpp = sample_wpp();
        let compacted = compact(&wpp).unwrap();
        let archive = TwppArchive::from_compacted(&compacted);
        let mut bytes = archive.as_bytes().to_vec();
        for (pos, val) in flips {
            let len = bytes.len();
            bytes[pos % len] ^= val;
        }
        if let Ok((salvaged, _)) = TwppArchive::recover(&bytes) {
            let (_, report) = TwppArchive::recover(salvaged.as_bytes())
                .expect("rebuilt archive must parse");
            prop_assert!(report.is_clean(), "repair did not converge:\n{report}");
        }
    }

    #[test]
    fn corrupted_v2_archives_error_not_panic(
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 0..8),
    ) {
        // Legacy v2 archives (no checksums) keep working, and corrupted
        // ones still never panic the strict or salvage decoders.
        let wpp = sample_wpp();
        let compacted = compact(&wpp).unwrap();
        let names: std::collections::HashMap<_, _> = [
            (twpp_repro::twpp_ir::FuncId::from_index(0), "main".to_owned()),
            (twpp_repro::twpp_ir::FuncId::from_index(1), "f".to_owned()),
        ]
        .into_iter()
        .collect();
        let mut bytes = twpp_repro::twpp::archive::encode_v2_named(&compacted, &names).unwrap();
        let pristine = flips.is_empty();
        for (pos, val) in flips {
            let len = bytes.len();
            bytes[pos % len] ^= val;
        }
        assert_lazy_agrees_with_eager("v2", &bytes);
        if let Ok(parsed) = TwppArchive::from_bytes(bytes.clone()) {
            for func in parsed.function_ids() {
                let _ = parsed.read_function(func);
            }
            let _ = parsed.read_dcg();
        } else {
            prop_assert!(!pristine, "clean v2 archive must parse");
        }
        let _ = TwppArchive::recover(&bytes);
    }

    #[test]
    fn corrupted_wpp_files_error_not_panic(
        flips in prop::collection::vec((0usize..4096, any::<u8>()), 1..8),
    ) {
        let wpp = sample_wpp();
        let mut bytes = Vec::new();
        wpp.write_to(&mut bytes).unwrap();
        for (pos, val) in flips {
            let len = bytes.len();
            bytes[pos % len] ^= val;
        }
        if let Ok(parsed) = RawWpp::read_from(&bytes[..]) {
            // Scanning a possibly-garbage (but decodable) stream must not
            // panic either.
            let _ = parsed.scan_function(twpp_repro::twpp_ir::FuncId::from_index(0));
            let _ = twpp_repro::twpp::partition(&parsed);
        }
    }
}

fn sample_wpp() -> RawWpp {
    use twpp_repro::twpp_ir::{BlockId, FuncId};
    use twpp_repro::twpp_tracer::WppEvent;
    let f = |i| FuncId::from_index(i);
    let b = |i| BlockId::new(i);
    let mut events = vec![WppEvent::Enter(f(0)), WppEvent::Block(b(1))];
    for t in [&[1u32, 2, 4][..], &[1, 3, 4], &[1, 2, 4]] {
        events.push(WppEvent::Enter(f(1)));
        for &x in t {
            events.push(WppEvent::Block(b(x)));
        }
        events.push(WppEvent::Exit);
    }
    events.push(WppEvent::Exit);
    RawWpp::from_events(&events)
}
