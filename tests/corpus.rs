//! Golden-corpus decode tests: small checked-in archives in every
//! supported container version, decoded by the *current* reader.
//!
//! The corpus pins two promises:
//!
//! * **Format stability** — the v3 encoder reproduces the checked-in
//!   clean archive byte for byte, so any format change is a deliberate,
//!   reviewed version bump rather than an accident.
//! * **Forward compatibility of `TwppArchive::recover`** — every corpus
//!   file (legacy v2, clean v3, degraded v3, truncated v3) must keep
//!   decoding through the salvage entry point in all future sessions.
//!
//! `regenerate_golden_corpus` (ignored) rewrites the files from the
//! deterministic source program; run it only alongside an intentional
//! format change:
//!
//! ```text
//! cargo test --test corpus regenerate_golden_corpus -- --ignored
//! ```

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use twpp_repro::twpp::archive::encode_v2_named;
use twpp_repro::twpp::{
    compact, compact_governed, ArchiveError, Budget, Compactor, Durability, FaultPlan,
    GovOptions, IngestOptions, LazyArchive, Obs, TwppArchive,
};
use twpp_repro::twpp_ir::FuncId;
use twpp_repro::twpp_lang;
use twpp_repro::twpp_tracer::{run_traced, ExecLimits, WppEvent};

/// The corpus source program: two leaf functions with distinct path
/// shapes plus a loopy main, so the archive holds several function
/// regions, multiple unique traces and a non-trivial DCG.
const CORPUS_SRC: &str = "\
fn f(x) { if (x % 2 == 0) { print(x); } else { print(0 - x); } }
fn g(x) { let j = 0; while (j < 3) { print(x + j); j = j + 1; } }
fn main() { let i = 0; while (i < 6) { f(i); g(i); i = i + 1; } }";

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_names(program: &twpp_repro::twpp_ir::Program) -> HashMap<FuncId, String> {
    program
        .funcs()
        .map(|(id, f)| (id, f.name().to_owned()))
        .collect()
}

/// Deterministically rebuilds all four corpus artifacts in memory.
fn build_corpus() -> Vec<(&'static str, Vec<u8>)> {
    let program = twpp_lang::compile(CORPUS_SRC).expect("corpus program compiles");
    let (_, wpp) = run_traced(&program, &[], ExecLimits::default()).expect("corpus program runs");
    let names = corpus_names(&program);

    // Clean v3.
    let compacted = compact(&wpp).expect("corpus compacts");
    let v3 = TwppArchive::from_compacted_named_with_threads(&compacted, &names, 1);
    let v3_bytes = v3.as_bytes().to_vec();

    // Legacy v2 layout.
    let v2_bytes = encode_v2_named(&compacted, &names).expect("v2 encodes");

    // Degraded v3: function f's compaction stage panics and is isolated.
    let (f_id, _) = program.func_by_name("f").expect("f exists");
    let options = GovOptions {
        threads: Some(1),
        budget: Budget::unlimited(),
        fail_fast: false,
        faults: FaultPlan::panic_on(f_id),
        obs: Obs::noop(),
    };
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (degraded_c, stats) = compact_governed(&wpp, &options).expect("degraded run completes");
    std::panic::set_hook(prev);
    assert_eq!(stats.degraded.len(), 1, "exactly f degrades");
    let degraded = TwppArchive::from_compacted_governed(
        &degraded_c,
        &names,
        1,
        &stats.degraded.failed,
    );
    let degraded_bytes = degraded.as_bytes().to_vec();

    // Truncated v3: the clean archive with its tail torn off mid-data,
    // as an interrupted write would leave it. Salvage must still run.
    let cut = v3_bytes.len() * 2 / 3;
    let truncated_bytes = v3_bytes[..cut].to_vec();

    vec![
        ("small-v3.twpa", v3_bytes),
        ("small-v2.twpa", v2_bytes),
        ("degraded-v3.twpa", degraded_bytes),
        ("truncated-v3.twpa", truncated_bytes),
    ]
}

fn read_corpus_file(name: &str) -> Vec<u8> {
    let path = corpus_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `cargo test --test corpus regenerate_golden_corpus -- --ignored` \
             to (re)create the corpus",
            path.display()
        )
    })
}

/// The corpus event stream: the traced run of [`CORPUS_SRC`].
fn corpus_events() -> Vec<WppEvent> {
    let program = twpp_lang::compile(CORPUS_SRC).expect("corpus program compiles");
    let (_, wpp) = run_traced(&program, &[], ExecLimits::default()).expect("corpus program runs");
    wpp.events()
}

/// Deterministically builds the `segdir-v2` fixture into `dir`: a
/// mid-flight compactor directory as a killed process leaves it — a few
/// sealed segments, a WAL tail of acknowledged-but-unsealed events, and
/// a torn half-record at the WAL's end (an append the crash interrupted).
/// Returns the full stream and the number of durable (acknowledged)
/// events the directory holds.
fn build_segdir(dir: &Path) -> (Vec<WppEvent>, u64) {
    let _ = std::fs::remove_dir_all(dir);
    let events = corpus_events();
    let opts = IngestOptions {
        seal_bytes: 96,
        durability: Durability::None,
        threads: Some(1),
        ..IngestOptions::default()
    };
    let mut compactor = Compactor::create(dir, opts).expect("create segdir");
    let mut cut = events.len() * 2 / 3;
    for piece in events[..cut].chunks(19) {
        compactor.feed(piece).expect("feed segdir");
    }
    if compactor.window_events() == 0 {
        // The cut landed exactly on a seal boundary; the fixture wants a
        // non-empty WAL tail, so push a few more events past it.
        let extra = 5.min(events.len() - cut);
        compactor.feed(&events[cut..cut + extra]).expect("feed tail");
        cut += extra;
    }
    assert!(compactor.segment_count() >= 2, "fixture needs sealed segments");
    assert!(compactor.window_events() > 0, "fixture needs a WAL tail");
    let durable = compactor.accepted_events();
    assert_eq!(durable, cut as u64);
    drop(compactor); // vanish without sealing, like a kill would
    // The interrupted append: encode the next batch as a real WAL record
    // but let only part of it reach the disk.
    let next = &events[cut..(cut + 9).min(events.len())];
    let mut record = Vec::new();
    twpp_repro::twpp::ingest::encode_record(durable, next, &mut record);
    let torn = &record[..record.len() * 2 / 3];
    let wal = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).expect("fixture wal");
    bytes.extend_from_slice(torn);
    std::fs::write(&wal, bytes).expect("append torn record");
    (events, durable)
}

/// Rewrites the corpus from source. Ignored: run only on deliberate
/// format changes, and review the resulting diff.
#[test]
#[ignore = "rewrites the golden corpus; run on intentional format changes only"]
fn regenerate_golden_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    for (name, bytes) in build_corpus() {
        std::fs::write(dir.join(name), bytes).expect("write corpus file");
    }
    // `segdir-v1/` (archive segments) is no longer written by any build;
    // it stays as the read-compatibility fixture and is never rewritten.
    build_segdir(&dir.join("segdir-v2"));
}

#[test]
fn v3_encoder_is_byte_stable_against_the_corpus() {
    let fresh: Vec<(&str, Vec<u8>)> = build_corpus();
    for (name, bytes) in &fresh {
        if *name == "truncated-v3.twpa" {
            continue; // derived, checked via the clean file
        }
        let golden = read_corpus_file(name);
        assert_eq!(
            &golden, bytes,
            "{name}: encoder output drifted from the golden corpus; if the \
             format change is intentional, bump the version and regenerate"
        );
    }
}

#[test]
fn clean_v3_corpus_recovers_clean_and_round_trips() {
    let bytes = read_corpus_file("small-v3.twpa");
    let (archive, report) = TwppArchive::recover(&bytes).expect("recover accepts clean v3");
    assert!(report.is_clean(), "{report}");
    assert_eq!(archive.version(), 3);
    assert_eq!(archive.as_bytes(), &bytes[..], "clean recovery is identity");
    // Semantic content: three functions, f with 6 calls over 2 paths.
    assert_eq!(archive.function_ids().len(), 3);
    let f = archive.function_by_name("f").expect("names embedded");
    let record = archive.read_function(f).expect("f readable");
    assert_eq!(record.call_count, 6);
    assert_eq!(record.traces.len(), 2);
    let compacted = archive.to_compacted().expect("archive decodes");
    assert_eq!(compacted.functions.len(), 3);
}

#[test]
fn legacy_v2_corpus_still_decodes_through_recover() {
    let v2 = read_corpus_file("small-v2.twpa");
    let (archive, report) = TwppArchive::recover(&v2).expect("recover accepts v2");
    // v2 has no checksums: salvage decodes each region and keeps what
    // parses — all of it, for an intact file.
    assert_eq!(report.lost_functions(), 0, "{report}");
    assert_eq!(report.salvaged_functions(), 3);
    let f = archive.function_by_name("f").expect("v2 names survive");
    let record = archive.read_function(f).expect("f readable from v2");
    assert_eq!(record.call_count, 6);
    assert_eq!(record.traces.len(), 2);

    // The salvaged archive is a committed v3 re-encode whose content
    // matches the clean v3 corpus function for function.
    let v3 = read_corpus_file("small-v3.twpa");
    let (clean, _) = TwppArchive::recover(&v3).expect("clean v3");
    for func in clean.function_ids() {
        let a = archive.read_function(func).expect("v2 side");
        let b = clean.read_function(func).expect("v3 side");
        assert_eq!(a.call_count, b.call_count, "{func}");
        assert_eq!(
            a.try_expanded_traces().expect("v2 traces expand"),
            b.try_expanded_traces().expect("v3 traces expand"),
            "{func}"
        );
    }
}

#[test]
fn degraded_v3_corpus_reports_degradation_not_damage() {
    let bytes = read_corpus_file("degraded-v3.twpa");
    let (archive, report) = TwppArchive::recover(&bytes).expect("recover accepts degraded");
    assert!(
        report.is_degraded_only(),
        "degraded archive must verify as intact-but-degraded: {report}"
    );
    assert_eq!(report.degraded_functions().len(), 1);
    assert!(archive.is_degraded());
    // The surviving functions still answer queries.
    let g = archive.function_by_name("g").expect("g survives");
    let record = archive.read_function(g).expect("g readable");
    assert_eq!(record.call_count, 6);
}

/// The eager reader (bytes in memory) and the lazy reader (the file,
/// read by seek) parse one index: they accept the same corpus files —
/// legacy v2 and degraded v3 included — and read the same records, DCG
/// and names from them.
#[test]
fn eager_and_lazy_readers_agree_on_every_corpus_file() {
    for name in ["small-v3.twpa", "small-v2.twpa", "degraded-v3.twpa", "truncated-v3.twpa"] {
        let eager = TwppArchive::from_bytes(read_corpus_file(name));
        let lazy = LazyArchive::open(&corpus_dir().join(name));
        let (eager, lazy) = match (eager, lazy) {
            (Ok(eager), Ok(lazy)) => (eager, lazy),
            (Err(e), Err(l)) => {
                assert_eq!(name, "truncated-v3.twpa", "{name} refused: {e}");
                assert_eq!(e.to_string(), l.to_string(), "{name}");
                continue;
            }
            (e, l) => panic!("{name}: eager {:?}, lazy {:?}", e.err(), l.err()),
        };
        assert_eq!(lazy.function_ids(), eager.function_ids(), "{name}");
        assert_eq!(lazy.failed_functions(), eager.failed_functions(), "{name}");
        assert_eq!(
            lazy.read_dcg().expect("lazy DCG").to_words(),
            eager.read_dcg().expect("eager DCG").to_words(),
            "{name}"
        );
        let listed: Vec<FuncId> = eager
            .function_ids()
            .into_iter()
            .chain(eager.failed_functions().iter().map(|&(f, _)| f))
            .collect();
        for func in listed {
            let func_name = eager.function_name(func).expect("corpus functions are named");
            assert_eq!(lazy.function_name(func), Some(func_name), "{name}: {func}");
            assert_eq!(eager.function_by_name(func_name), Some(func), "{name}: {func_name}");
            assert_eq!(lazy.function_by_name(func_name), Some(func), "{name}: {func_name}");
            match (eager.read_function(func), lazy.read_function(func)) {
                (Ok(e), Ok(l)) => assert_eq!(*l, e, "{name}: {func}"),
                (Err(e), Err(l)) => assert_eq!(e.to_string(), l.to_string(), "{name}: {func}"),
                (e, l) => panic!("{name}: {func}: eager {e:?}, lazy {l:?}"),
            }
        }
    }
    // The degraded function resolves by name and reads as degraded.
    let lazy = LazyArchive::open(&corpus_dir().join("degraded-v3.twpa")).expect("opens");
    let f = lazy.function_by_name("f").expect("degraded f keeps its name");
    assert!(matches!(lazy.read_function(f), Err(ArchiveError::DegradedFunction(id)) if id == f));
}

/// The served analyses read a v2 archive through the same lazy open as a
/// v3 one and answer identically.
#[test]
fn served_slice_and_currency_answers_match_across_v2_and_v3() {
    let v2 = LazyArchive::open(&corpus_dir().join("small-v2.twpa")).expect("v2 opens lazily");
    let v3 = LazyArchive::open(&corpus_dir().join("small-v3.twpa")).expect("v3 opens lazily");
    assert_eq!(v2.function_ids(), v3.function_ids());
    let budget = Budget::unlimited();
    let mut answered = 0;
    for func in v3.function_ids() {
        let r2 = v2.read_function(func).expect("v2 record");
        let r3 = v3.read_function(func).expect("v3 record");
        for (t, path) in r3.try_expanded_traces().expect("traces expand").iter().enumerate() {
            let t = t as u32;
            let mut blocks: Vec<u32> = path.iter().map(|b| b.as_u32()).collect();
            blocks.sort_unstable();
            blocks.dedup();
            for &b in &blocks {
                let slice = twpp_server::slice_answer(func, &r3, t, b, &budget);
                assert_eq!(twpp_server::slice_answer(func, &r2, t, b, &budget), slice);
                answered += usize::from(slice.is_ok());
                for &u in &blocks {
                    let currency = twpp_server::currency_answer(func, &r3, t, b, u, &[], &budget);
                    assert_eq!(
                        twpp_server::currency_answer(func, &r2, t, b, u, &[], &budget),
                        currency
                    );
                    answered += usize::from(currency.is_ok());
                }
            }
        }
    }
    assert!(answered > 0, "no slice or currency request was answerable");
}

#[test]
fn truncated_v3_corpus_salvages_a_usable_subset() {
    let bytes = read_corpus_file("truncated-v3.twpa");
    let (archive, report) =
        TwppArchive::recover(&bytes).expect("recover accepts a torn write");
    assert!(!report.is_clean(), "a torn archive must not verify clean");
    // Whatever was salvaged re-encodes as a clean v3 archive.
    let salvaged = archive.as_bytes().to_vec();
    let (_, second) = TwppArchive::recover(&salvaged).expect("salvage output recovers");
    assert!(second.is_clean(), "salvage output must be clean: {second}");
    assert_eq!(
        report.salvaged_functions(),
        archive.function_ids().len(),
        "report and archive agree on the salvage count"
    );
}

/// Sorted `(file name, bytes)` pairs of a directory's regular files.
fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| {
            panic!(
                "{}: {e}\nrun `cargo test --test corpus regenerate_golden_corpus -- --ignored` \
                 to (re)create the corpus",
                dir.display()
            )
        })
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(entry.path()).expect("corpus file readable");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn segdir_corpus_is_byte_stable() {
    let fresh_dir = std::env::temp_dir().join(format!("twpp-segdir-stability-{}", std::process::id()));
    build_segdir(&fresh_dir);
    let fresh = dir_files(&fresh_dir);
    let golden = dir_files(&corpus_dir().join("segdir-v2"));
    let names = |fs: &[(String, Vec<u8>)]| fs.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&golden), names(&fresh), "segdir file set drifted");
    for ((name, want), (_, got)) in golden.iter().zip(&fresh) {
        assert_eq!(
            want, got,
            "segdir-v2/{name}: bytes drifted from the golden fixture; if the \
             WAL/manifest/archive format change is intentional, bump the \
             version and regenerate"
        );
    }
    std::fs::remove_dir_all(&fresh_dir).ok();
}

/// The forward-compatibility promise for ingest state: every future
/// version must be able to pick up these exact on-disk directories —
/// sealed segments, WAL tail, torn trailing record — resume them, and
/// finish to the same archive a batch compaction of the whole stream
/// produces. `segdir-v1` holds archive segments an older build sealed,
/// so its resume seals raw windows behind them and merges a mixed chain;
/// `segdir-v2` holds raw windows.
#[test]
fn segdir_corpus_resumes_and_finishes_byte_identically() {
    for fixture in ["segdir-v1", "segdir-v2"] {
        resume_and_finish_fixture(fixture);
    }
}

fn resume_and_finish_fixture(fixture: &str) {
    // Resume mutates its directory (truncates the torn tail, seals,
    // merges), so work on a copy of the golden fixture.
    let golden = corpus_dir().join(fixture);
    let work = std::env::temp_dir().join(format!("twpp-{fixture}-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create work dir");
    for (name, bytes) in dir_files(&golden) {
        std::fs::write(work.join(name), bytes).expect("copy fixture file");
    }

    let events = corpus_events();
    let opts = IngestOptions {
        seal_bytes: 96,
        durability: Durability::None,
        threads: Some(1),
        ..IngestOptions::default()
    };
    let (mut compactor, report) = Compactor::resume(&work, opts).expect("fixture must resume");
    assert!(report.wal_torn, "the fixture's torn record must be detected");
    assert!(report.segments >= 2);
    assert!(report.wal_events > 0, "the WAL tail must replay");
    let durable = compactor.accepted_events();
    assert_eq!(durable, report.sealed_events + report.wal_events);
    for piece in events[durable as usize..].chunks(23) {
        compactor.feed(piece).expect("refeed after resume");
    }
    let finish = compactor.finish().expect("finish resumed fixture");

    let wpp = twpp_repro::twpp_tracer::RawWpp::from_events(&events);
    let compacted = compact(&wpp).expect("batch compaction");
    let batch = TwppArchive::from_compacted_named_with_threads(&compacted, &HashMap::new(), 1);
    assert_eq!(
        std::fs::read(&finish.path).expect("merged archive"),
        batch.as_bytes(),
        "{fixture}: resumed fixture must converge to the batch archive"
    );
    std::fs::remove_dir_all(&work).ok();
}
