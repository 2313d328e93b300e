//! End-to-end tests of the incremental compactor: however the event
//! stream is chunked across `feed` calls, seals, process deaths and
//! resumes, the merged archive is byte-identical to batch compaction of
//! the whole stream.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use twpp::ingest::{replay_dir_events, Compactor, IngestError, IngestOptions};
use twpp::{compact_governed, Durability, GovOptions, PipelineError, TwppArchive};
use twpp_ir::{BlockId, FuncId};
use twpp_tracer::raw::RawWpp;
use twpp_tracer::WppEvent;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "twpp-ingest-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic ~2.3k-event stream: nested calls, loops (arithmetic
/// timestamp series), repeated bodies (redundant traces) and a final
/// still-open activation (truncated-stream path).
fn stream() -> Vec<WppEvent> {
    let f = |i: usize| WppEvent::Enter(FuncId::from_index(i));
    let b = |i: u32| WppEvent::Block(BlockId::new(i));
    let x = WppEvent::Exit;
    let mut ev = vec![f(0), b(1)];
    for outer in 0..24 {
        ev.extend([b(2), f(1), b(1)]);
        for inner in 0..(outer % 5) + 2 {
            ev.extend([b(2), b(3), f(2), b(1)]);
            for _ in 0..inner % 3 {
                ev.extend([b(2), b(4)]);
            }
            ev.extend([b(5), x, b(4)]);
        }
        ev.extend([b(6), x, b(3)]);
        if outer % 4 == 0 {
            ev.extend([f(3), b(1), f(1), b(1), b(6), x, b(2), x]);
        }
    }
    // Leave one activation open: partition closes it implicitly, and the
    // compactor must agree byte-for-byte.
    ev.extend([f(1), b(1), b(2)]);
    ev
}

fn batch_bytes(events: &[WppEvent]) -> Vec<u8> {
    let wpp = RawWpp::from_events(events);
    let (compacted, stats) =
        compact_governed(&wpp, &GovOptions::default()).expect("batch compaction");
    TwppArchive::from_compacted_codec(
        &compacted,
        &HashMap::new(),
        twpp::resolve_threads(None),
        &stats.degraded.failed,
        &twpp::Obs::noop(),
        twpp::Codec::Legacy,
    )
    .as_bytes()
    .to_vec()
}

fn small_opts() -> IngestOptions {
    IngestOptions {
        // ~64 events per window: many segments from a small stream.
        seal_bytes: 256,
        durability: Durability::None,
        ..IngestOptions::default()
    }
}

#[test]
fn chunked_ingest_is_byte_identical_to_batch() {
    let events = stream();
    let expected = batch_bytes(&events);
    for chunk in [1usize, 7, 64, events.len()] {
        let dir = temp_dir("chunk");
        let mut c = Compactor::create(&dir, small_opts()).expect("create");
        for piece in events.chunks(chunk) {
            c.feed(piece).expect("feed");
        }
        let report = c.finish().expect("finish");
        assert_eq!(report.events, events.len() as u64);
        assert!(report.segments >= 1);
        let merged = std::fs::read(&report.path).expect("merged archive");
        assert_eq!(
            merged, expected,
            "chunk size {chunk}: merged archive differs from batch"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

#[test]
fn resume_after_silent_death_continues_exactly() {
    let events = stream();
    let expected = batch_bytes(&events);
    let dir = temp_dir("resume");
    // First process: feed 60% in ragged chunks, then vanish without
    // sealing (drop = no cleanup, like a SIGKILL between syscalls).
    let fed;
    {
        let mut c = Compactor::create(&dir, small_opts()).expect("create");
        let cut = events.len() * 6 / 10;
        for piece in events[..cut].chunks(13) {
            c.feed(piece).expect("feed");
        }
        fed = c.accepted_events();
        assert!(c.window_events() > 0, "test wants a non-empty WAL tail");
    }
    // Second process: resume, verify the report, feed the rest.
    let (mut c, report) = Compactor::resume(&dir, small_opts()).expect("resume");
    assert_eq!(report.sealed_events + report.wal_events, fed);
    assert!(!report.wal_torn);
    assert_eq!(c.accepted_events(), fed);
    for piece in events[fed as usize..].chunks(29) {
        c.feed(piece).expect("feed after resume");
    }
    let finish = c.finish().expect("finish");
    assert_eq!(std::fs::read(&finish.path).expect("merged"), expected);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn resume_drops_torn_wal_tail_and_refeeds() {
    let events = stream();
    let expected = batch_bytes(&events);
    let dir = temp_dir("torn");
    {
        let mut c = Compactor::create(&dir, small_opts()).expect("create");
        for piece in events[..events.len() / 2].chunks(11) {
            c.feed(piece).expect("feed");
        }
        assert!(c.window_events() > 0);
    }
    // Tear the final WAL record: the crash raced the last append.
    let wal = dir.join("wal.log");
    let bytes = std::fs::read(&wal).expect("wal");
    std::fs::write(&wal, &bytes[..bytes.len() - 5]).expect("truncate");

    let (mut c, report) = Compactor::resume(&dir, small_opts()).expect("resume");
    assert!(report.wal_torn, "the torn record must be detected");
    let durable = c.accepted_events() as usize;
    assert!(durable < events.len() / 2, "the torn batch must be dropped");
    // The producer re-sends everything past the last acknowledged event.
    for piece in events[durable..].chunks(17) {
        c.feed(piece).expect("refeed");
    }
    let finish = c.finish().expect("finish");
    assert_eq!(std::fs::read(&finish.path).expect("merged"), expected);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn replay_dir_reconstructs_the_exact_stream() {
    let events = stream();
    let dir = temp_dir("replay");
    let mut c = Compactor::create(&dir, small_opts()).expect("create");
    for piece in events.chunks(41) {
        c.feed(piece).expect("feed");
    }
    // Half-open state: some sealed segments plus a WAL tail.
    let replay = replay_dir_events(&dir).expect("replay");
    assert_eq!(replay.events, events);
    assert_eq!(replay.sealed_events, c.sealed_events());
    drop(c);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn feed_mirrors_partition_error_contract() {
    let dir = temp_dir("errors");
    let mut c = Compactor::create(&dir, small_opts()).expect("create");
    // Block outside any activation.
    let err = c.feed(&[WppEvent::Block(BlockId::new(1))]).unwrap_err();
    assert!(matches!(err, IngestError::Stream(_)), "got {err:?}");
    // The rejected batch acknowledged nothing.
    assert_eq!(c.accepted_events(), 0);
    // A valid root run...
    c.feed(&[
        WppEvent::Enter(FuncId::from_index(0)),
        WppEvent::Block(BlockId::new(1)),
        WppEvent::Exit,
    ])
    .expect("valid stream");
    // ...then a second root is rejected, mid-batch, atomically.
    let err = c
        .feed(&[WppEvent::Enter(FuncId::from_index(1))])
        .unwrap_err();
    assert!(matches!(err, IngestError::Stream(_)), "got {err:?}");
    assert_eq!(c.accepted_events(), 3);
    drop(c);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn finishing_an_empty_run_matches_batch_empty_error() {
    let dir = temp_dir("empty");
    let c = Compactor::create(&dir, small_opts()).expect("create");
    let err = c.finish().unwrap_err();
    assert!(
        matches!(
            err,
            IngestError::Pipeline(PipelineError::Partition(twpp::PartitionError::Empty))
        ),
        "got {err:?}"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn budget_exhaustion_seals_early_instead_of_dying() {
    let events = stream();
    let expected = batch_bytes(&events);
    let dir = temp_dir("budget");
    let opts = IngestOptions {
        // A step budget far smaller than the stream: every feed past the
        // cap forces an early seal, but ingestion keeps going.
        budget: twpp::Limits {
            max_steps: Some(64),
            ..twpp::Limits::default()
        }
        .start(),
        seal_bytes: 1 << 20,
        durability: Durability::None,
        ..IngestOptions::default()
    };
    let mut c = Compactor::create(&dir, opts).expect("create");
    for piece in events.chunks(50) {
        c.feed(piece).expect("budget must backpressure, not kill");
    }
    assert!(
        c.segment_count() > 1,
        "exhaustion should have forced early seals"
    );
    let finish = c.finish().expect("finish");
    assert_eq!(std::fs::read(&finish.path).expect("merged"), expected);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
