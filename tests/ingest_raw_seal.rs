//! Ingest seals raw windows and compacts once, at drain.
//!
//! A seal appends the open window as CRC-framed raw records to
//! `segments.wal` (the write-ahead log's own format) and its manifest to
//! `segments.man`, and compacts nothing; `finish` reads every window
//! strictly, concatenates them and runs the batch pipeline once. These
//! tests pin that contract:
//!
//! * drain ≡ batch: `merged.twpa` is byte-identical to batch compaction
//!   over several seal sizes and feed chunkings;
//! * compaction runs once per `finish` and never in `seal`;
//! * a damaged sealed window (flipped byte, torn tail, a record out of
//!   sequence, a window shorter than its manifest) refuses to resume and
//!   makes `fsck` call the directory non-resumable;
//! * a newest window whose manifest never landed, and a torn manifest,
//!   are crash debris: resume cuts them off and replays the window's
//!   events from the WAL;
//! * archive segments an older build sealed (`tests/corpus/segdir-v1/`)
//!   still resume behind raw windows, and a directory mixing the two
//!   kinds for one segment is refused.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use twpp_repro::twpp::ingest::{
    fsck_dir, manifests_path, windows_path, IngestError, Records, SegmentKind, SegmentMeta,
    WAL_RECORD_HEADER_LEN,
};
use twpp_repro::twpp::{compact, Compactor, Durability, IngestOptions, Obs, TwppArchive};
use twpp_repro::twpp_lang;
use twpp_repro::twpp_tracer::{run_traced, ExecLimits, RawWpp, WppEvent};

/// Nested calls, loops and an uneven call depth, so windows start and
/// end at varying activation depths.
const SRC: &str = "\
fn f(x) { if (x % 3 == 0) { print(x); } else { print(0 - x); } }
fn g(x) { let j = 0; while (j < x % 4) { f(x + j); j = j + 1; } }
fn main() { let i = 0; while (i < 40) { g(i); f(i); i = i + 1; } }";

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "twpp-raw-seal-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn events() -> Vec<WppEvent> {
    let program = twpp_lang::compile(SRC).expect("test program compiles");
    let (_, wpp) = run_traced(&program, &[], ExecLimits::default()).expect("test program runs");
    wpp.events()
}

fn batch_bytes(events: &[WppEvent]) -> Vec<u8> {
    let compacted = compact(&RawWpp::from_events(events)).expect("batch compaction");
    TwppArchive::from_compacted(&compacted).as_bytes().to_vec()
}

fn opts(seal_bytes: u64) -> IngestOptions {
    IngestOptions {
        seal_bytes,
        durability: Durability::None,
        threads: Some(1),
        ..IngestOptions::default()
    }
}

/// Feeds `events` in `chunk`-sized batches into a fresh compactor.
fn fed(dir: &Path, events: &[WppEvent], seal_bytes: u64, chunk: usize) -> Compactor {
    let mut c = Compactor::create(dir, opts(seal_bytes)).expect("create");
    for piece in events.chunks(chunk) {
        c.feed(piece).expect("feed");
    }
    c
}

/// A directory left mid-flight: at least three sealed windows and a
/// non-empty WAL tail. Returns the stream and the durable event count.
fn mid_flight(dir: &Path) -> (Vec<WppEvent>, u64) {
    let events = events();
    let c = fed(dir, &events[..events.len() / 2], 256, 11);
    assert!(c.segment_count() >= 3, "fixture needs sealed windows");
    assert!(c.window_events() > 0, "fixture needs a WAL tail");
    let durable = c.accepted_events();
    drop(c); // vanish without sealing, like a kill would
    (events, durable)
}

/// Resumes `dir`, feeds the rest of `events` and finishes.
fn resume_and_finish(dir: &Path, events: &[WppEvent]) -> Vec<u8> {
    let (mut c, _) = Compactor::resume(dir, opts(256)).expect("resume");
    let durable = c.accepted_events() as usize;
    for piece in events[durable..].chunks(17) {
        c.feed(piece).expect("refeed");
    }
    let finish = c.finish().expect("finish");
    std::fs::read(finish.path).expect("merged archive")
}

/// Asserts the directory refuses to resume with a typed segment error
/// naming `file`, and that `fsck` calls it non-resumable.
fn assert_refused(dir: &Path, what: &str, file: &str) {
    match Compactor::resume(dir, opts(256)) {
        Err(IngestError::Segment(msg)) => assert!(msg.contains(file), "{what}: {msg}"),
        Err(e) => panic!("{what}: expected a segment error, got {e}"),
        Ok(_) => panic!("{what}: damaged directory resumed"),
    }
    let check = fsck_dir(dir, &Obs::noop()).expect("fsck reads the directory");
    assert!(
        !check.is_resumable(),
        "{what}: fsck must not call it resumable"
    );
}

/// The manifests of the directory's sealed chain, in order.
fn chain(dir: &Path) -> Vec<SegmentMeta> {
    let check = fsck_dir(dir, &Obs::noop()).expect("fsck");
    check.segments.into_iter().map(|s| s.meta).collect()
}

/// Where raw window `meta` lies in `segments.wal`, and its events,
/// parsed with the WAL record parser.
fn window(dir: &Path, meta: &SegmentMeta) -> (std::ops::Range<usize>, Vec<WppEvent>) {
    let bytes = std::fs::read(windows_path(dir)).expect("window log");
    let records: Vec<_> = Records::new(&bytes)
        .expect("window log header")
        .filter(|r| (meta.accepted_before..meta.accepted_after()).contains(&r.offset))
        .collect();
    let (first, last) = (records.first().expect("a record"), records.last().expect("a record"));
    let end = last.at as usize + WAL_RECORD_HEADER_LEN + last.payload.len();
    let events = records.iter().flat_map(|r| r.events()).collect();
    (first.at as usize..end, events)
}

/// Replaces `range` of `segments.wal` with `with`.
fn splice(dir: &Path, range: std::ops::Range<usize>, with: &[u8]) {
    let path = windows_path(dir);
    let mut bytes = std::fs::read(&path).expect("window log");
    bytes.splice(range, with.iter().copied());
    std::fs::write(&path, bytes).expect("rewrite window log");
}

/// One well-formed record of `events` at global event `offset`.
fn record(offset: u64, events: &[WppEvent]) -> Vec<u8> {
    let mut out = Vec::new();
    twpp_repro::twpp::ingest::encode_record(offset, events, &mut out);
    out
}

#[test]
fn drain_equals_batch_over_seal_sizes_and_chunkings() {
    let events = events();
    let batch = batch_bytes(&events);
    for seal_bytes in [64, 256, 4096, 1 << 20] {
        for chunk in [1, 7, 64, 1000] {
            let dir = temp_dir("identity");
            let c = fed(&dir, &events, seal_bytes, chunk);
            let finish = c.finish().expect("finish");
            assert_eq!(
                std::fs::read(&finish.path).expect("merged"),
                batch,
                "seal_bytes {seal_bytes}, chunk {chunk}: drain diverged from batch"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn compaction_runs_once_per_finish_and_never_in_seal() {
    let events = events();
    let dir = temp_dir("once");
    let obs = Obs::collecting();
    let mut c = Compactor::create(
        &dir,
        IngestOptions {
            obs: obs.clone(),
            ..opts(256)
        },
    )
    .expect("create");
    for piece in events.chunks(13) {
        c.feed(piece).expect("feed");
    }
    let seals = c.segment_count();
    assert!(
        seals >= 3,
        "the stream must seal several windows, sealed {seals}"
    );
    let count = |name: &str| obs.spans().iter().filter(|s| s.name == name).count();
    assert_eq!(count("ingest_seal") as u64, seals);
    assert_eq!(count("partition"), 0, "a seal must not compact");
    let finish = c.finish().expect("finish");
    assert_eq!(count("partition"), 1, "finish compacts exactly once");
    assert_eq!(
        std::fs::read(&finish.path).expect("merged"),
        batch_bytes(&events)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_sealed_windows_refuse_resume_and_fsck() {
    let pristine = temp_dir("pristine");
    let (events, _) = mid_flight(&pristine);
    let copy = |tag: &str| {
        let dir = temp_dir(tag);
        std::fs::create_dir_all(&dir).expect("create copy");
        for entry in std::fs::read_dir(&pristine).expect("read pristine") {
            let entry = entry.expect("entry");
            std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy file");
        }
        dir
    };
    let metas = chain(&pristine);
    let (second, last) = (&metas[1], metas.last().expect("sealed windows"));
    let (range, sealed) = window(&pristine, second);
    let (last_range, last_events) = window(&pristine, last);
    const LOG: &str = "segments.wal";

    let flipped = copy("flip");
    let log = std::fs::read(windows_path(&flipped)).expect("window log");
    let mut image = log[range.clone()].to_vec();
    let end = image.len() - 1;
    image[end] ^= 0x40;
    splice(&flipped, range.clone(), &image);
    assert_refused(&flipped, "flipped byte", LOG);

    let torn = copy("torn");
    let bytes = std::fs::read(windows_path(&torn)).expect("window log");
    std::fs::write(windows_path(&torn), &bytes[..bytes.len() - 3]).expect("tear");
    assert_refused(&torn, "torn tail", LOG);

    // The newest window rewritten CRC-valid and in sequence, one event
    // short of its manifest: only the event count catches it.
    let short = copy("short");
    let image = record(last.accepted_before, &last_events[..last_events.len() - 1]);
    splice(&short, last_range, &image);
    assert_refused(&short, "window shorter than its manifest", LOG);

    // A middle window rewritten CRC-valid with its manifest's event
    // count, starting one event late: only the contiguity check
    // catches it.
    let gap = copy("gap");
    splice(&gap, range, &record(second.accepted_before + 1, &sealed));
    assert_refused(&gap, "record out of sequence", LOG);

    // The untouched directory still resumes and converges to batch.
    assert_eq!(resume_and_finish(&pristine, &events), batch_bytes(&events));
    for dir in [pristine, flipped, torn, short, gap] {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn uncommitted_window_and_torn_manifest_are_cut_and_replayed_from_the_wal() {
    let dir = temp_dir("orphan");
    let (events, durable) = mid_flight(&dir);
    let lens = |dir: &Path| {
        [windows_path(dir), manifests_path(dir)]
            .map(|p| std::fs::metadata(p).expect("chain log").len())
    };
    let committed = lens(&dir);
    // A crash after the window append leaves the next window in
    // `segments.wal` without a manifest, while its events are still in
    // the WAL — whose records are exactly what the seal appends. A crash
    // during the manifest append leaves a prefix of one.
    let wal = std::fs::read(dir.join("wal.log")).expect("wal");
    let append = |path: PathBuf, bytes: &[u8]| {
        let mut all = std::fs::read(&path).expect("chain log");
        all.extend_from_slice(bytes);
        std::fs::write(&path, all).expect("plant debris");
    };
    append(windows_path(&dir), &wal[8..]);
    let manifest = std::fs::read(manifests_path(&dir)).expect("manifest log");
    append(manifests_path(&dir), &manifest[..10]);
    let check = fsck_dir(&dir, &Obs::noop()).expect("fsck");
    assert!(
        check.is_resumable() && !check.is_clean(),
        "an uncommitted tail is debris, not damage"
    );
    assert_eq!(check.orphans.len(), 2, "{check:?}");

    let (c, report) = Compactor::resume(&dir, opts(256)).expect("resume over debris");
    assert_eq!(report.orphans_removed, 2);
    assert_eq!(lens(&dir), committed, "resume cuts both logs back");
    assert!(report.wal_events > 0);
    assert_eq!(
        c.accepted_events(),
        durable,
        "the uncommitted window's events replay from the WAL"
    );
    drop(c);
    assert!(fsck_dir(&dir, &Obs::noop()).expect("fsck").is_clean());
    assert_eq!(resume_and_finish(&dir, &events), batch_bytes(&events));
    std::fs::remove_dir_all(&dir).ok();
}

fn copy_fixture(name: &str) -> PathBuf {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus")
        .join(name);
    let work = temp_dir(name);
    std::fs::create_dir_all(&work).expect("create work dir");
    for entry in std::fs::read_dir(&golden).expect("fixture present") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), work.join(entry.file_name())).expect("copy fixture file");
    }
    work
}

#[test]
fn archive_segments_resume_behind_raw_windows_and_mixed_kinds_are_refused() {
    // An older build's directory: resume it, seal raw windows behind its
    // archive segments, and the mixed chain checks clean.
    let dir = copy_fixture("segdir-v1");
    let (mut c, report) = Compactor::resume(&dir, opts(96)).expect("v1 fixture resumes");
    let archives = report.segments;
    assert!(
        report.wal_events > 0,
        "the fixture's WAL tail is the next window"
    );
    c.seal()
        .expect("seal a raw window behind the archive segments");
    assert_eq!(chain(&dir).len() as u64, archives + 1);
    assert!(windows_path(&dir).exists());
    let check = fsck_dir(&dir, &Obs::noop()).expect("fsck");
    assert!(check.is_clean(), "mixed chain: {check:?}");
    drop(c);

    let man = |dir: &Path, seq: u64| dir.join(format!("seg-{seq:06}.man"));
    let as_window = |dir: &Path, seq: u64| {
        let bytes = std::fs::read(man(dir, seq)).expect("v1 manifest");
        let meta = SegmentMeta::decode(&bytes).expect("v1 manifest decodes");
        SegmentMeta { kind: SegmentKind::Window, ..meta }.encode()
    };

    // A per-segment manifest whose version is not an archive segment's.
    let relabelled = copy_fixture("segdir-v1");
    std::fs::write(man(&relabelled, 2), as_window(&relabelled, 2)).expect("relabel");
    assert_refused(&relabelled, "v2 manifest over an archive segment", "seg-000002.man");

    // An archive manifest in the raw-window manifest log.
    let misfiled = copy_fixture("segdir-v1");
    std::fs::remove_file(misfiled.join("seg-000002.twpa")).expect("drop archive");
    std::fs::rename(man(&misfiled, 2), manifests_path(&misfiled)).expect("move manifest");
    assert_refused(&misfiled, "v1 manifest in the raw-window log", "segments.man");

    // One sequence number both an archive segment and a raw window.
    let doubled = copy_fixture("segdir-v1");
    std::fs::write(manifests_path(&doubled), as_window(&doubled, 2)).expect("double");
    assert_refused(&doubled, "archive and raw window for one segment", "segments.man");

    for d in [dir, relabelled, misfiled, doubled] {
        std::fs::remove_dir_all(d).ok();
    }
}
