//! The differential engine: holds the optimized pipeline to the naive
//! reference oracles and to itself (across thread counts and execution
//! policies).
//!
//! Every check takes a raw WPP event stream and returns `Ok(())` or a
//! human-readable divergence description. Checks are registered by name
//! in [`EVENT_CHECKS`] so the battery can count per-check statistics and
//! the shrinker can replay a *single* failing check against smaller
//! candidates.

use std::collections::HashMap;

use twpp::dbb::compact_trace;
use twpp::dedup::eliminate_redundancy_threads;
use twpp::partition::{partition, PartitionError};
use twpp::pipeline::{compact_governed, CompactedTwpp, GovOptions};
use twpp::timestamped::TimestampedTrace;
use twpp::trace::PathTrace;
use twpp::tsset::TsSet;
use twpp::TwppArchive;
use twpp_ir::FuncId;
use twpp_tracer::{RawWpp, WppEvent};

use crate::reference::{
    ref_compact_series, ref_dbb_fold, ref_dbb_unfold, ref_decode_wire, ref_dedup,
    ref_encode_wire, ref_invert, ref_partition, RefPartitionError,
};

/// An event-stream conformance check.
pub type EventCheck = fn(&[WppEvent], &CheckContext) -> Result<(), String>;

/// Shared knobs for one battery run.
#[derive(Clone, Debug)]
pub struct CheckContext {
    /// Thread counts the pipeline must be byte-identical across.
    pub threads: Vec<usize>,
}

impl Default for CheckContext {
    fn default() -> CheckContext {
        CheckContext {
            threads: (1..=8).collect(),
        }
    }
}

/// The registered differential checks, in battery order.
pub const EVENT_CHECKS: &[(&str, EventCheck)] = &[
    ("raw-words-roundtrip", check_raw_words_roundtrip),
    ("partition-oracle", check_partition_oracle),
    ("partition-reconstruct", check_partition_reconstruct),
    ("dedup-oracle", check_dedup_oracle),
    ("dbb-oracle", check_dbb_oracle),
    ("invert-oracle", check_invert_oracle),
    ("tsset-series-oracle", check_tsset_series_oracle),
    ("pipeline-thread-identity", check_pipeline_thread_identity),
    ("pipeline-reconstruct", check_pipeline_reconstruct),
    ("archive-roundtrip", check_archive_roundtrip),
    ("archive-recover-clean", check_archive_recover_clean),
    ("governed-equivalence", check_governed_equivalence),
    ("observed-byte-identity", check_observed_byte_identity),
    ("ingest-chunking-identity", check_ingest_chunking_identity),
    ("serve-drain-equivalence", check_serve_drain_equivalence),
    ("adaptive-codec-roundtrip", check_adaptive_codec_roundtrip),
    ("adaptive-legacy-equivalence", check_adaptive_legacy_equivalence),
    ("serve-equivalence", check_serve_equivalence),
];

fn fmt_events(events: &[WppEvent]) -> String {
    let head: Vec<String> = events.iter().take(24).map(|e| format!("{e:?}")).collect();
    let ellipsis = if events.len() > 24 { ", …" } else { "" };
    format!("[{}{}] ({} events)", head.join(", "), ellipsis, events.len())
}

/// Round trip through the raw 4-byte word encoding.
fn check_raw_words_roundtrip(events: &[WppEvent], _cx: &CheckContext) -> Result<(), String> {
    let wpp = RawWpp::from_events(events);
    if wpp.events() != events {
        return Err("RawWpp::events() differs from the input stream".to_string());
    }
    let back = RawWpp::from_words(wpp.words().to_vec())
        .map_err(|e| format!("from_words rejected its own encoding: {e}"))?;
    if back != wpp {
        return Err("word round-trip produced a different RawWpp".to_string());
    }
    Ok(())
}

/// Partitioning versus the naive stack partitioner: structure, offsets,
/// per-activation traces, per-function trace layout and error contract.
fn check_partition_oracle(events: &[WppEvent], _cx: &CheckContext) -> Result<(), String> {
    let wpp = RawWpp::from_events(events);
    let optimized = partition(&wpp);
    let reference = ref_partition(events);
    match (&optimized, &reference) {
        (Err(e), Ok(_)) => return Err(format!("optimized rejected ({e}); oracle accepted")),
        (Ok(_), Err(e)) => return Err(format!("optimized accepted; oracle rejected ({e:?})")),
        (Err(opt), Err(oracle)) => {
            let agree = matches!(
                (opt, oracle),
                (PartitionError::Empty, RefPartitionError::Empty)
                    | (
                        PartitionError::EventOutsideActivation,
                        RefPartitionError::OutsideActivation
                    )
                    | (PartitionError::MultipleRoots, RefPartitionError::MultipleRoots)
            );
            if !agree {
                return Err(format!("error kinds disagree: {opt:?} vs {oracle:?}"));
            }
            return Ok(());
        }
        (Ok(_), Ok(_)) => {}
    }
    let part = optimized.expect("checked above");
    let oracle = reference.expect("checked above");

    if part.dcg.node_count() != oracle.activations.len() {
        return Err(format!(
            "activation counts differ: optimized {} vs oracle {}",
            part.dcg.node_count(),
            oracle.activations.len()
        ));
    }
    // DCG nodes are created in Enter order, so index i corresponds to the
    // oracle's preorder activation i.
    for (id, node) in part.dcg.iter() {
        let a = &oracle.activations[id.index()];
        if node.func != a.func {
            return Err(format!("node {}: func {} vs {}", id.index(), node.func, a.func));
        }
        if node.offset_in_parent != a.offset_in_parent {
            return Err(format!(
                "node {}: offset_in_parent {} vs {}",
                id.index(),
                node.offset_in_parent,
                a.offset_in_parent
            ));
        }
        let children: Vec<usize> = node.children.iter().map(|c| c.index()).collect();
        if children != a.children {
            return Err(format!(
                "node {}: children {:?} vs {:?}",
                id.index(),
                children,
                a.children
            ));
        }
        if part.trace_of(id).blocks() != a.blocks.as_slice() {
            return Err(format!(
                "node {}: trace {:?} vs {:?}",
                id.index(),
                part.trace_of(id).blocks(),
                a.blocks
            ));
        }
    }
    // Per-function trace lists land in close (Exit) order.
    let expected = oracle.traces_by_function();
    if part.traces.len() != expected.len() {
        return Err("per-function trace maps have different key sets".to_string());
    }
    for (func, traces) in &part.traces {
        let Some(exp) = expected.get(func) else {
            return Err(format!("function {func} missing from oracle traces"));
        };
        let got: Vec<&[twpp_ir::BlockId]> = traces.iter().map(PathTrace::blocks).collect();
        let want: Vec<&[twpp_ir::BlockId]> = exp.iter().map(Vec::as_slice).collect();
        if got != want {
            return Err(format!("function {func}: trace list order/content differs"));
        }
    }
    Ok(())
}

/// `partition` then `reconstruct` must agree with the oracle's own
/// reconstruction (which equals the input when it was not truncated).
fn check_partition_reconstruct(events: &[WppEvent], _cx: &CheckContext) -> Result<(), String> {
    let wpp = RawWpp::from_events(events);
    let (Ok(part), Ok(oracle)) = (partition(&wpp), ref_partition(events)) else {
        return Ok(()); // rejection symmetry is checked elsewhere
    };
    let rec = part.reconstruct();
    let want = oracle.reconstruct();
    if rec.events() != want {
        return Err(format!(
            "reconstruction differs:\n  optimized {}\n  oracle    {}",
            fmt_events(&rec.events()),
            fmt_events(&want)
        ));
    }
    Ok(())
}

/// Redundancy elimination versus the naive first-seen dedup, across
/// thread counts, plus content preservation through the DCG remap.
fn check_dedup_oracle(events: &[WppEvent], cx: &CheckContext) -> Result<(), String> {
    let wpp = RawWpp::from_events(events);
    let (Ok(part), Ok(oracle)) = (partition(&wpp), ref_partition(events)) else {
        return Ok(());
    };
    let expected = oracle.traces_by_function();
    let mut baseline = None;
    for &t in &cx.threads {
        let mut deduped = part.clone();
        let stats = eliminate_redundancy_threads(&mut deduped, t);
        for (func, traces) in &expected {
            let (unique, _) = ref_dedup(traces);
            let got = deduped
                .traces
                .get(func)
                .ok_or_else(|| format!("threads={t}: function {func} lost by dedup"))?;
            let got_blocks: Vec<&[twpp_ir::BlockId]> =
                got.iter().map(PathTrace::blocks).collect();
            let want_blocks: Vec<&[twpp_ir::BlockId]> =
                unique.iter().map(Vec::as_slice).collect();
            if got_blocks != want_blocks {
                return Err(format!(
                    "threads={t}: function {func}: unique traces differ \
                     (optimized {} vs oracle {})",
                    got_blocks.len(),
                    want_blocks.len()
                ));
            }
            let want_stats = (traces.len() as u64, unique.len() as u64);
            let got_stats = stats
                .per_func
                .get(func)
                .copied()
                .ok_or_else(|| format!("threads={t}: stats missing function {func}"))?;
            if got_stats != want_stats {
                return Err(format!(
                    "threads={t}: function {func}: stats {got_stats:?} vs {want_stats:?}"
                ));
            }
        }
        // The remap must preserve every activation's trace content.
        for (id, _) in deduped.dcg.iter() {
            let original = &oracle.activations[id.index()].blocks;
            if deduped.trace_of(id).blocks() != original.as_slice() {
                return Err(format!(
                    "threads={t}: node {} trace content changed by dedup",
                    id.index()
                ));
            }
        }
        // Dedup is idempotent: a second pass changes nothing.
        let mut twice = deduped.clone();
        eliminate_redundancy_threads(&mut twice, t);
        if twice != deduped {
            return Err(format!("threads={t}: dedup is not idempotent"));
        }
        // And thread-count invariant.
        match &baseline {
            None => baseline = Some(deduped),
            Some(b) => {
                if *b != deduped {
                    return Err(format!("dedup output differs between threads={} and {t}",
                        cx.threads[0]));
                }
            }
        }
    }
    Ok(())
}

/// Per-trace checks against oracles. Applies `f` to every unique path
/// trace of the partitioned-and-deduplicated case.
fn for_each_unique_trace(
    events: &[WppEvent],
    mut f: impl FnMut(FuncId, &PathTrace) -> Result<(), String>,
) -> Result<(), String> {
    let wpp = RawWpp::from_events(events);
    let Ok(mut part) = partition(&wpp) else {
        return Ok(());
    };
    eliminate_redundancy_threads(&mut part, 1);
    for (func, traces) in &part.traces {
        for trace in traces {
            f(*func, trace)?;
        }
    }
    Ok(())
}

/// DBB folding versus the naive chain-rule re-derivation.
fn check_dbb_oracle(events: &[WppEvent], _cx: &CheckContext) -> Result<(), String> {
    for_each_unique_trace(events, |func, trace| {
        let optimized = compact_trace(trace);
        let (folded, chains) = ref_dbb_fold(trace.blocks());
        if optimized.trace.blocks() != folded.as_slice() {
            return Err(format!(
                "{func}: folded trace differs on {:?}: optimized {:?} vs oracle {:?}",
                trace.blocks(),
                optimized.trace.blocks(),
                folded
            ));
        }
        let got: Vec<(twpp_ir::BlockId, Vec<twpp_ir::BlockId>)> = optimized
            .dictionary
            .iter()
            .map(|(h, c)| (h, c.to_vec()))
            .collect();
        let want: Vec<(twpp_ir::BlockId, Vec<twpp_ir::BlockId>)> =
            chains.iter().map(|(h, c)| (*h, c.clone())).collect();
        if got != want {
            return Err(format!("{func}: DBB dictionaries differ: {got:?} vs {want:?}"));
        }
        let expanded = optimized.dictionary.expand(&optimized.trace);
        if expanded != *trace {
            return Err(format!("{func}: expand(fold(t)) != t"));
        }
        if ref_dbb_unfold(&folded, &chains) != trace.blocks() {
            return Err(format!("{func}: oracle unfold broke its own fold"));
        }
        Ok(())
    })
}

/// Timestamp inversion versus the naive position map.
fn check_invert_oracle(events: &[WppEvent], _cx: &CheckContext) -> Result<(), String> {
    for_each_unique_trace(events, |func, trace| {
        let folded = compact_trace(trace);
        let tt = TimestampedTrace::from_path_trace(&folded.trace);
        let naive = ref_invert(folded.trace.blocks());
        if tt.block_count() != naive.len() {
            return Err(format!(
                "{func}: inversion block counts differ ({} vs {})",
                tt.block_count(),
                naive.len()
            ));
        }
        for (block, ts) in tt.iter() {
            let Some(want) = naive.get(&block) else {
                return Err(format!("{func}: block {block} invented by inversion"));
            };
            if ts.to_vec() != *want {
                return Err(format!(
                    "{func}: block {block}: timestamps {:?} vs {:?}",
                    ts.to_vec(),
                    want
                ));
            }
        }
        if tt.to_path_trace() != folded.trace {
            return Err(format!("{func}: inversion round-trip differs"));
        }
        // Serialized form round-trips too.
        let words = tt
            .to_words()
            .map_err(|e| format!("{func}: to_words failed: {e}"))?;
        let mut pos = 0;
        let back = TimestampedTrace::from_words(&words, &mut pos)
            .map_err(|e| format!("{func}: from_words failed: {e}"))?;
        if pos != words.len() || back != tt {
            return Err(format!("{func}: timestamped word round-trip differs"));
        }
        Ok(())
    })
}

/// Arithmetic-series compaction and the sign-delimited wire format
/// versus the naive compactor/encoder/decoder.
fn check_tsset_series_oracle(events: &[WppEvent], _cx: &CheckContext) -> Result<(), String> {
    for_each_unique_trace(events, |func, trace| {
        let folded = compact_trace(trace);
        for (block, values) in ref_invert(folded.trace.blocks()) {
            let set = TsSet::from_sorted(&values);
            if set.to_vec() != values {
                return Err(format!("{func}/{block}: from_sorted changed membership"));
            }
            let got: Vec<(u32, u32, u32)> = set
                .entries()
                .iter()
                .map(|e| (e.first(), e.last(), e.step()))
                .collect();
            let want = ref_compact_series(&values);
            if got != want {
                return Err(format!(
                    "{func}/{block}: series entries differ on {values:?}: \
                     optimized {got:?} vs oracle {want:?}"
                ));
            }
            let wire = set
                .to_wire()
                .map_err(|e| format!("{func}/{block}: to_wire failed: {e}"))?;
            let want_wire = ref_encode_wire(&want)
                .map_err(|e| format!("{func}/{block}: oracle encode failed: {e}"))?;
            if wire != want_wire {
                return Err(format!(
                    "{func}/{block}: wire words differ: {wire:?} vs {want_wire:?}"
                ));
            }
            let decoded = ref_decode_wire(&wire)
                .map_err(|e| format!("{func}/{block}: oracle decoder rejected wire: {e}"))?;
            if decoded != values {
                return Err(format!(
                    "{func}/{block}: oracle decode of optimized wire differs: \
                     {decoded:?} vs {values:?}"
                ));
            }
            let back = TsSet::from_wire(&wire)
                .map_err(|e| format!("{func}/{block}: from_wire failed: {e}"))?;
            if back != set {
                return Err(format!("{func}/{block}: wire round-trip differs"));
            }
        }
        Ok(())
    })
}

fn compact_at(events: &[WppEvent], threads: usize) -> Result<Option<CompactedTwpp>, String> {
    let wpp = RawWpp::from_events(events);
    let options = GovOptions {
        threads: Some(threads),
        ..GovOptions::default()
    };
    match compact_governed(&wpp, &options) {
        Ok((c, _)) => Ok(Some(c)),
        Err(twpp::pipeline::PipelineError::Partition(_)) => Ok(None),
        Err(e) => Err(format!("threads={threads}: unexpected pipeline error: {e}")),
    }
}

/// `c` encoded without names on `threads` workers with the legacy codec,
/// observed by `obs`.
fn encode_at(c: &CompactedTwpp, threads: usize, obs: &twpp::obs::Obs) -> TwppArchive {
    TwppArchive::from_compacted_codec(c, &HashMap::new(), threads, &[], obs, twpp::Codec::Legacy)
}

/// The full pipeline and the archive encoder are byte-identical across
/// every thread count.
fn check_pipeline_thread_identity(events: &[WppEvent], cx: &CheckContext) -> Result<(), String> {
    let mut baseline: Option<(usize, CompactedTwpp, Vec<u8>)> = None;
    for &t in &cx.threads {
        let Some(c) = compact_at(events, t)? else {
            return Ok(());
        };
        let archive = encode_at(&c, t, &twpp::obs::Obs::noop());
        match &baseline {
            None => baseline = Some((t, c, archive.as_bytes().to_vec())),
            Some((t0, c0, bytes0)) => {
                if *c0 != c {
                    return Err(format!(
                        "compacted output differs between threads={t0} and threads={t}"
                    ));
                }
                if bytes0.as_slice() != archive.as_bytes() {
                    return Err(format!(
                        "archive bytes differ between threads={t0} and threads={t}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Full-pipeline semantic round trip: WPP → TWPP → WPP.
fn check_pipeline_reconstruct(events: &[WppEvent], _cx: &CheckContext) -> Result<(), String> {
    let Some(c) = compact_at(events, 1)? else {
        return Ok(());
    };
    let Ok(oracle) = ref_partition(events) else {
        return Ok(());
    };
    let rec = c.reconstruct();
    let want = oracle.reconstruct();
    if rec.events() != want {
        return Err(format!(
            "pipeline reconstruction differs:\n  optimized {}\n  oracle    {}",
            fmt_events(&rec.events()),
            fmt_events(&want)
        ));
    }
    Ok(())
}

/// Archive byte round trip: encode → parse → decode → reconstruct.
fn check_archive_roundtrip(events: &[WppEvent], _cx: &CheckContext) -> Result<(), String> {
    let Some(c) = compact_at(events, 1)? else {
        return Ok(());
    };
    let archive = TwppArchive::from_compacted(&c);
    let parsed = TwppArchive::from_bytes(archive.as_bytes().to_vec())
        .map_err(|e| format!("from_bytes rejected a fresh archive: {e}"))?;
    let back = parsed
        .to_compacted()
        .map_err(|e| format!("to_compacted failed: {e}"))?;
    if back != c {
        return Err("archive decode produced a different CompactedTwpp".to_string());
    }
    if back.reconstruct().events() != c.reconstruct().events() {
        return Err("archive round-trip changed the reconstructed WPP".to_string());
    }
    Ok(())
}

/// `recover` on pristine bytes must be a clean no-op.
fn check_archive_recover_clean(events: &[WppEvent], _cx: &CheckContext) -> Result<(), String> {
    let Some(c) = compact_at(events, 1)? else {
        return Ok(());
    };
    let archive = TwppArchive::from_compacted(&c);
    let (recovered, report) = TwppArchive::recover(archive.as_bytes())
        .map_err(|e| format!("recover rejected a clean archive: {e}"))?;
    if !report.is_clean() {
        return Err(format!("recovery report not clean on pristine bytes: {report:?}"));
    }
    if recovered.as_bytes() != archive.as_bytes() {
        return Err("recovery rewrote a clean archive".to_string());
    }
    Ok(())
}

/// Governed (fail-fast and degrade policy, unlimited budget, no faults)
/// output equals the ungoverned pipeline's, byte for byte.
fn check_governed_equivalence(events: &[WppEvent], cx: &CheckContext) -> Result<(), String> {
    let Some(plain) = compact_at(events, 1)? else {
        return Ok(());
    };
    let wpp = RawWpp::from_events(events);
    let threads = [
        *cx.threads.first().unwrap_or(&1),
        *cx.threads.last().unwrap_or(&1),
    ];
    for t in threads {
        for fail_fast in [true, false] {
            let options = GovOptions {
                threads: Some(t),
                fail_fast,
                ..GovOptions::default()
            };
            let (c, stats) = compact_governed(&wpp, &options)
                .map_err(|e| format!("governed pipeline failed without faults: {e}"))?;
            if !stats.degraded.failed.is_empty() {
                return Err(format!(
                    "threads={t} fail_fast={fail_fast}: spurious degradation"
                ));
            }
            if c != plain {
                return Err(format!(
                    "threads={t} fail_fast={fail_fast}: governed output differs"
                ));
            }
        }
    }
    Ok(())
}

/// A collecting observer must never change the output bytes.
fn check_observed_byte_identity(events: &[WppEvent], cx: &CheckContext) -> Result<(), String> {
    let Some(plain) = compact_at(events, 1)? else {
        return Ok(());
    };
    let wpp = RawWpp::from_events(events);
    let t = *cx.threads.last().unwrap_or(&1);
    let obs = twpp::obs::Obs::collecting();
    let options = GovOptions {
        threads: Some(t),
        obs: obs.clone(),
        ..GovOptions::default()
    };
    let (c, _) = compact_governed(&wpp, &options)
        .map_err(|e| format!("observed pipeline failed: {e}"))?;
    if c != plain {
        return Err("observed pipeline output differs from noop".to_string());
    }
    let plain_bytes = TwppArchive::from_compacted(&plain);
    let observed = encode_at(&c, t, &obs);
    if plain_bytes.as_bytes() != observed.as_bytes() {
        return Err("observed archive bytes differ from noop".to_string());
    }
    Ok(())
}

/// Runs the full event stream through the incremental compactor in
/// `chunk`-sized `feed` batches and returns the merged archive bytes.
/// `Ok(None)` means the stream was rejected as malformed — which must
/// agree with the batch pipeline's verdict.
fn ingest_bytes(
    events: &[WppEvent],
    threads: usize,
    chunk: usize,
) -> Result<Option<Vec<u8>>, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "twpp-conf-ingest-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = twpp::IngestOptions {
        // A tiny window so even small cases seal several segments.
        seal_bytes: 256,
        durability: twpp::Durability::None,
        threads: Some(threads),
        ..twpp::IngestOptions::default()
    };
    let result = (|| {
        let mut compactor = twpp::Compactor::create(&dir, opts)
            .map_err(|e| format!("ingest create failed: {e}"))?;
        for piece in events.chunks(chunk.max(1)) {
            match compactor.feed(piece) {
                Ok(()) => {}
                Err(twpp::IngestError::Stream(_)) => return Ok(None),
                Err(e) => return Err(format!("ingest feed failed: {e}")),
            }
        }
        match compactor.finish() {
            Ok(report) => std::fs::read(&report.path)
                .map(Some)
                .map_err(|e| format!("merged archive unreadable: {e}")),
            Err(twpp::IngestError::Pipeline(twpp::pipeline::PipelineError::Partition(_))) => {
                Ok(None)
            }
            Err(e) => Err(format!("ingest finish failed: {e}")),
        }
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Incremental ingestion is chunking-invariant and batch-equivalent:
/// however the stream is split across `feed` calls, and at every thread
/// count, the merged archive is byte-identical to one-shot batch
/// compaction — and malformed streams are rejected by exactly the same
/// contract.
fn check_ingest_chunking_identity(events: &[WppEvent], cx: &CheckContext) -> Result<(), String> {
    let t0 = *cx.threads.first().unwrap_or(&1);
    let tn = *cx.threads.last().unwrap_or(&1);
    let batch = compact_at(events, t0)?.map(|c| {
        encode_at(&c, t0, &twpp::obs::Obs::noop())
            .as_bytes()
            .to_vec()
    });
    let mut shapes = vec![(t0, 1usize), (t0, 7), (t0, events.len().max(2) / 2)];
    if tn != t0 {
        shapes.push((tn, 7));
    }
    shapes.dedup();
    for (t, chunk) in shapes {
        let incremental = ingest_bytes(events, t, chunk)?;
        match (&batch, &incremental) {
            (None, None) => {}
            (None, Some(_)) => {
                return Err(format!(
                    "threads={t} chunk={chunk}: incremental accepted a stream \
                     the batch pipeline rejects"
                ));
            }
            (Some(_), None) => {
                return Err(format!(
                    "threads={t} chunk={chunk}: incremental rejected a stream \
                     the batch pipeline accepts"
                ));
            }
            (Some(b), Some(i)) => {
                if b != i {
                    return Err(format!(
                        "threads={t} chunk={chunk}: merged archive differs from \
                         batch ({} vs {} bytes)",
                        i.len(),
                        b.len()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Streams the events through an in-process `serve-ingest` daemon over a
/// loopback socket and drains it; returns the merged archive bytes, or
/// `Ok(None)` when the stream was rejected — a verdict that must agree
/// with the batch pipeline's.
fn serve_bytes(
    events: &[WppEvent],
    threads: usize,
    chunk: usize,
) -> Result<Option<Vec<u8>>, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "twpp-conf-serve-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = twpp::ingest::ServeOptions {
        seal_bytes: 256,
        durability: twpp::Durability::None,
        threads: Some(threads),
        poll_ms: 2,
        ..twpp::ingest::ServeOptions::default()
    };
    let listener = twpp::ingest::ServeListener::bind("tcp:127.0.0.1:0")
        .map_err(|e| format!("serve bind failed: {e}"))?;
    let addr = listener.local_addr();
    let shutdown = twpp::CancelToken::new();
    let daemon = {
        let dir = dir.clone();
        let shutdown = shutdown.clone();
        std::thread::spawn(move || twpp::ingest::serve(&dir, listener, shutdown, opts))
    };
    let retry = twpp::Retry::new(8, 1, 4, 7);
    let feed = (|| -> Result<bool, String> {
        let hostport = addr.strip_prefix("tcp:").unwrap_or(&addr);
        let stream = std::net::TcpStream::connect(hostport)
            .map_err(|e| format!("serve connect failed: {e}"))?;
        stream.set_nodelay(true).ok();
        let mut client = twpp::net::Client::hello(stream, "src")
            .map_err(|e| format!("serve hello failed: {e}"))?;
        for piece in events.chunks(chunk.max(1)) {
            match client.send_events(piece, &retry) {
                Ok(_) => {}
                // A typed stream rejection: the daemon survives, the
                // source acknowledges nothing further.
                Err(twpp::net::NetError::Remote { .. }) => return Ok(true),
                Err(e) => return Err(format!("serve feed failed: {e}")),
            }
        }
        client.drain().map_err(|e| format!("serve drain failed: {e}"))?;
        Ok(false)
    })();
    // A rejected stream leaves no drain frame behind; stop the daemon
    // via the cancel token instead (the SIGTERM path).
    shutdown.cancel();
    let report = daemon
        .join()
        .map_err(|_| "serve thread panicked".to_string())?
        .map_err(|e| format!("serve failed: {e}"))?;
    let rejected = feed?;
    let result = if rejected || report.sources.iter().any(|s| s.failed.is_some()) {
        Ok(None)
    } else {
        match report.sources.iter().find_map(|s| s.merged.as_ref()) {
            Some(path) => std::fs::read(path)
                .map(Some)
                .map_err(|e| format!("served archive unreadable: {e}")),
            None => Ok(None),
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The streaming daemon is transport-invariant: feeding a stream over
/// the framed socket protocol and draining gracefully yields the exact
/// bytes of batch compaction, however the stream is chunked into frames
/// — and both sides reject malformed streams under the same contract.
fn check_serve_drain_equivalence(events: &[WppEvent], cx: &CheckContext) -> Result<(), String> {
    if events.is_empty() {
        // An idle source is skipped at drain ("no events; nothing to
        // merge"); there is no archive to compare.
        return Ok(());
    }
    let t = *cx.threads.first().unwrap_or(&1);
    let batch = ingest_bytes(events, t, events.len())?;
    for chunk in [13usize, events.len().max(2) / 2] {
        let served = serve_bytes(events, t, chunk)?;
        match (&batch, &served) {
            (None, None) => {}
            (None, Some(_)) => {
                return Err(format!(
                    "chunk={chunk}: the daemon accepted a stream the batch \
                     pipeline rejects"
                ));
            }
            (Some(_), None) => {
                return Err(format!(
                    "chunk={chunk}: the daemon rejected a stream the batch \
                     pipeline accepts"
                ));
            }
            (Some(b), Some(s)) => {
                if b != s {
                    return Err(format!(
                        "chunk={chunk}: drained archive differs from batch \
                         ({} vs {} bytes)",
                        s.len(),
                        b.len()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The query server is a pure view over its archives: every answer an
/// in-process server (the daemon's exact `handle_request` path, minus
/// the socket) gives for query/slice/currency must equal the direct
/// dataflow oracle computed from the same archive — and a step-governed
/// partial answer must be a text prefix of the complete one with
/// monotone coverage.
fn check_serve_equivalence(events: &[WppEvent], _cx: &CheckContext) -> Result<(), String> {
    use std::sync::atomic::{AtomicU64, Ordering};

    let Some(c) = compact_at(events, 1)? else {
        return Ok(());
    };
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "twpp-conf-fleet-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("fleet dir: {e}"))?;
    let result = serve_equivalence_in(&dir, &c);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn serve_equivalence_in(dir: &std::path::Path, c: &CompactedTwpp) -> Result<(), String> {
    use twpp::net::{BudgetSpec, CurrencyReq, Frame, QueryReq, SliceReq};
    use twpp_dataflow::dyncfg::DynCfg;

    TwppArchive::from_compacted(c)
        .save_with(&dir.join("a.twpa"), twpp::Durability::None)
        .map_err(|e| format!("fleet archive write: {e}"))?;
    let server =
        twpp_server::InProcServer::new(dir, twpp_server::ServeOptions::default())
            .map_err(|e| format!("in-process server: {e}"))?;
    let la = twpp::lazy::LazyArchive::open(&dir.join("a.twpa"))
        .map_err(|e| format!("oracle open: {e}"))?;
    let unlimited = BudgetSpec { deadline_ms: 0, max_steps: 0 };
    let expect_answer = |frame: &Frame| -> Result<twpp::net::Answer, String> {
        match server.handle(frame) {
            Frame::Answer(a) => Ok(*a),
            other => Err(format!("server refused {frame:?}: {other:?}")),
        }
    };
    // Cap per-case work: the battery runs this on every generated stream.
    for func in la.function_ids().into_iter().take(8) {
        let record = la
            .read_function(func)
            .map_err(|e| format!("oracle read {}: {e}", func.as_u32()))?;
        let budget = twpp::Limits::default().start();
        let oracle = twpp_server::query_answer(func, &record, &budget)
            .map_err(|e| format!("oracle query: {e}"))?;
        let req = QueryReq { archive: "a".into(), func: func.as_u32() };
        let served = expect_answer(&Frame::Query { req: req.clone(), budget: unlimited })?;
        if served != oracle {
            return Err(format!(
                "function {}: served query differs from the dataflow oracle \
                 ({served:?} vs {oracle:?})",
                func.as_u32()
            ));
        }

        // Governed partials: a k-step answer must agree with the k-step
        // oracle, its text must be a prefix of the complete text (after
        // dropping the truncation marker), and coverage must be
        // monotone in k.
        let total = record.traces.len();
        let mut last_coverage = -1.0f64;
        for k in [1usize, total.max(2) / 2, total.saturating_sub(1)] {
            if k == 0 || k >= total {
                continue;
            }
            let spec = BudgetSpec { deadline_ms: 0, max_steps: k as u64 };
            let part =
                expect_answer(&Frame::Query { req: req.clone(), budget: spec })?;
            let oracle_budget = twpp::Limits::default().max_steps(k as u64).start();
            let oracle_part = twpp_server::query_answer(func, &record, &oracle_budget)
                .map_err(|e| format!("oracle partial query: {e}"))?;
            if part != oracle_part {
                return Err(format!(
                    "function {} max_steps={k}: served partial differs from \
                     the governed oracle",
                    func.as_u32()
                ));
            }
            if part.complete {
                return Err(format!(
                    "function {} max_steps={k} < {total} traces: answer \
                     claims completeness",
                    func.as_u32()
                ));
            }
            let stripped = match part.text.trim_end_matches('\n').rfind('\n') {
                Some(cut) => &part.text[..=cut],
                None => part.text.as_str(),
            };
            if !oracle.text.starts_with(stripped) {
                return Err(format!(
                    "function {} max_steps={k}: partial text is not a prefix \
                     of the complete answer",
                    func.as_u32()
                ));
            }
            if part.coverage() < last_coverage {
                return Err(format!(
                    "function {} max_steps={k}: coverage regressed ({} < {})",
                    func.as_u32(),
                    part.coverage(),
                    last_coverage
                ));
            }
            last_coverage = part.coverage();
        }

        // Slice and currency over trace 0, against the direct engines.
        if total == 0 {
            continue;
        }
        let (dict_idx, tt) = &record.traces[0];
        let dcfg = DynCfg::new(tt, &record.dicts[*dict_idx as usize]);
        if dcfg.node_count() == 0 {
            continue;
        }
        let criterion = dcfg.node(dcfg.node_count() - 1).head.as_u32();
        let def_block = dcfg.node(0).head.as_u32();
        let budget = twpp::Limits::default().start();
        let slice_oracle =
            twpp_server::slice_answer(func, &record, 0, criterion, &budget)
                .map_err(|e| format!("oracle slice: {e}"))?;
        let slice_served = expect_answer(&Frame::Slice {
            req: SliceReq { archive: "a".into(), func: func.as_u32(), trace: 0, criterion },
            budget: unlimited,
        })?;
        if slice_served != slice_oracle {
            return Err(format!(
                "function {} criterion {criterion}: served slice differs \
                 from the dataflow oracle",
                func.as_u32()
            ));
        }
        let budget = twpp::Limits::default().start();
        let currency_oracle = twpp_server::currency_answer(
            func, &record, 0, def_block, criterion, &[], &budget,
        )
        .map_err(|e| format!("oracle currency: {e}"))?;
        let currency_served = expect_answer(&Frame::Currency {
            req: CurrencyReq {
                archive: "a".into(),
                func: func.as_u32(),
                trace: 0,
                def_block,
                use_block: criterion,
                redefs: Vec::new(),
            },
            budget: unlimited,
        })?;
        if currency_served != currency_oracle {
            return Err(format!(
                "function {} def {def_block} use {criterion}: served currency \
                 differs from the dataflow oracle",
                func.as_u32()
            ));
        }
    }
    Ok(())
}

/// An archive encoded with [`twpp::Codec::Adaptive`] parses, recovers
/// cleanly, and decodes back to the exact `CompactedTwpp` it came from.
fn check_adaptive_codec_roundtrip(events: &[WppEvent], _cx: &CheckContext) -> Result<(), String> {
    let Some(c) = compact_at(events, 1)? else {
        return Ok(());
    };
    let archive = TwppArchive::from_compacted_codec(
        &c,
        &HashMap::new(),
        1,
        &[],
        &twpp::obs::Obs::noop(),
        twpp::Codec::Adaptive,
    );
    let parsed = TwppArchive::from_bytes(archive.as_bytes().to_vec())
        .map_err(|e| format!("from_bytes rejected a fresh adaptive archive: {e}"))?;
    let back = parsed
        .to_compacted()
        .map_err(|e| format!("adaptive to_compacted failed: {e}"))?;
    if back != c {
        return Err("adaptive archive decode produced a different CompactedTwpp".to_string());
    }
    let (_, report) = TwppArchive::recover(archive.as_bytes())
        .map_err(|e| format!("recover rejected a clean adaptive archive: {e}"))?;
    if !report.is_clean() {
        return Err(format!(
            "recovery report not clean on pristine adaptive bytes: {report:?}"
        ));
    }
    Ok(())
}

/// Adaptive and legacy encodings of the same `CompactedTwpp` decode to
/// identical per-function records, and adaptive is never larger.
fn check_adaptive_legacy_equivalence(events: &[WppEvent], _cx: &CheckContext) -> Result<(), String> {
    let Some(c) = compact_at(events, 1)? else {
        return Ok(());
    };
    let noop = twpp::obs::Obs::noop();
    let legacy =
        TwppArchive::from_compacted_codec(&c, &HashMap::new(), 1, &[], &noop, twpp::Codec::Legacy);
    let adaptive = TwppArchive::from_compacted_codec(
        &c,
        &HashMap::new(),
        1,
        &[],
        &noop,
        twpp::Codec::Adaptive,
    );
    if adaptive.byte_len() > legacy.byte_len() {
        return Err(format!(
            "adaptive archive larger than legacy: {} vs {} bytes",
            adaptive.byte_len(),
            legacy.byte_len()
        ));
    }
    let mut ids = legacy.function_ids();
    ids.sort();
    let mut adaptive_ids = adaptive.function_ids();
    adaptive_ids.sort();
    if ids != adaptive_ids {
        return Err("adaptive and legacy archives hold different functions".to_string());
    }
    for func in ids {
        let l = legacy
            .read_function(func)
            .map_err(|e| format!("legacy read_function({func}) failed: {e}"))?;
        let a = adaptive
            .read_function(func)
            .map_err(|e| format!("adaptive read_function({func}) failed: {e}"))?;
        if l != a {
            return Err(format!("function {func}: records differ between codecs"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{CaseGen, ShapeConfig};

    #[test]
    fn all_checks_pass_on_generated_cases() {
        let cx = CheckContext {
            threads: vec![1, 2, 4],
        };
        for seed in 0..24 {
            let events = CaseGen::new(ShapeConfig::small(), seed).events();
            for (name, check) in EVENT_CHECKS {
                if let Err(e) = check(&events, &cx) {
                    panic!("seed {seed}: check {name} diverged: {e}");
                }
            }
        }
    }

    #[test]
    fn checks_agree_on_malformed_streams() {
        use twpp_ir::{BlockId, FuncId};
        let cx = CheckContext::default();
        let bad = [
            vec![],
            vec![WppEvent::Block(BlockId::new(1))],
            vec![WppEvent::Exit],
            vec![
                WppEvent::Enter(FuncId::from_index(0)),
                WppEvent::Exit,
                WppEvent::Enter(FuncId::from_index(0)),
                WppEvent::Exit,
            ],
        ];
        for events in &bad {
            for (name, check) in EVENT_CHECKS {
                if let Err(e) = check(events, &cx) {
                    panic!("malformed stream: check {name} diverged: {e}");
                }
            }
        }
    }

    #[test]
    fn a_corrupted_wire_word_is_caught_by_the_oracle_decoder() {
        // Sabotage the *wire*, not the source tree: the naive decoder
        // must reject or disagree — this is the property that makes a
        // tsset.rs mutation detectable end to end.
        let values: Vec<u32> = vec![2, 4, 6, 8, 10, 13];
        let set = TsSet::from_sorted(&values);
        let mut wire = set.to_wire().unwrap();
        wire[0] += 1; // mutate the first entry's `first`
        match ref_decode_wire(&wire) {
            Err(_) => {}
            Ok(decoded) => assert_ne!(decoded, values, "mutation must be visible"),
        }
    }
}
