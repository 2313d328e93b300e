//! Lazy archive opens: O(metadata + footer) instead of O(all frames).
//!
//! A [`LazyArchive`] keeps only the archive's *index* resident — the
//! function table, the name table and the compressed DCG — and leaves
//! function frames on disk. A frame is read, CRC-checked and decoded the
//! first time its function is queried, then cached behind an [`Arc`], so
//! a process holding a fleet of archives open pays per *query*, not per
//! archive.
//!
//! Trust boundary: the lazy open parses the same index, with the same
//! code, as [`TwppArchive::from_bytes`] and
//! [`TwppArchive::read_function_from_file`]; the only difference is the
//! byte source (an open file read by seek instead of bytes in memory).
//! Everything that parse validates — for v3 the header, DCG and
//! name-table CRCs, the commit marker, the footer CRC and the
//! footer/data-length cross-check; for v2 and v3 the function-count cap
//! and every frame's bounds — can be relied on afterwards. Per-frame
//! magic, CRC and structural decoding are deferred to first access, so a
//! corrupt frame only surfaces when *that function* is read — every
//! other function keeps working. Legacy v2 archives open too.

#![deny(clippy::unwrap_used)]

use std::collections::HashSet;
use std::fs::File;
use std::path::Path;
use std::sync::{Arc, Mutex};

use twpp_ir::FuncId;

use crate::archive::{lock_unpoisoned, ArchiveError, FunctionRecord, Index, TwppArchive};
use crate::cache::{next_archive_uid, FrameCache, DEFAULT_FRAME_CACHE_BYTES};
use crate::dcg::Dcg;
use crate::gov::Budget;
use crate::obs::Obs;

/// An archive opened lazily: index verified and resident, function
/// frames decoded on first access and cached.
///
/// Obtained from [`TwppArchive::open_lazy`] (or
/// [`LazyArchive::open_with_cache`] to share a frame cache and record
/// metrics). Shared-reference methods take interior locks, so a
/// `LazyArchive` can be queried from multiple threads behind an `Arc`.
pub struct LazyArchive {
    file: Mutex<File>,
    index: Index,
    /// Decoded frames live in a byte-capped LRU — possibly shared with a
    /// whole fleet of archives — keyed by this archive's process-unique
    /// `uid`, so a huge archive can be scanned end to end without every
    /// decoded frame staying live.
    frames: Arc<FrameCache>,
    uid: u64,
    /// Functions decoded at least once (drives [`LazyArchive::decoded_count`]
    /// and the first-decode obs counter, independent of later evictions).
    decoded: Mutex<HashSet<FuncId>>,
    obs: Obs,
}

impl LazyArchive {
    /// Opens `path` lazily, validating the index exactly as
    /// [`TwppArchive::load`] does — every metadata CRC (header, DCG, name
    /// table, footer), the commit marker and every frame's bounds — but
    /// reading no function frame. Cost is O(metadata + footer) regardless
    /// of how many frames the archive holds. Legacy v2 archives open too.
    ///
    /// # Errors
    ///
    /// Anything [`TwppArchive::load`] would report about the index:
    /// [`ArchiveError::NotCommitted`] for interrupted writes, checksum
    /// mismatches, truncation, or [`ArchiveError::BadVersion`] for
    /// versions other than 2 and 3.
    pub fn open(path: &Path) -> Result<LazyArchive, ArchiveError> {
        let cache = Arc::new(FrameCache::new(DEFAULT_FRAME_CACHE_BYTES));
        LazyArchive::open_with_cache(path, cache, Obs::noop())
    }

    /// Like [`LazyArchive::open`], decoding frames into (and out of)
    /// `cache` — a byte-capped LRU that may be shared across many archives
    /// (each open gets a process-unique uid keying its entries). This is
    /// how a fleet server bounds resident frame bytes across all tenants
    /// with one knob. `obs` receives the `twpp_core_frames_decoded_lazy`
    /// counter (one increment per frame decoded on first access; cache
    /// hits don't count).
    ///
    /// # Errors
    ///
    /// Same as [`LazyArchive::open`].
    pub fn open_with_cache(
        path: &Path,
        cache: Arc<FrameCache>,
        obs: Obs,
    ) -> Result<LazyArchive, ArchiveError> {
        let file = Mutex::new(File::open(path)?);
        let index = Index::parse(&file)?;
        Ok(LazyArchive {
            file,
            index,
            frames: cache,
            uid: next_archive_uid(),
            decoded: Mutex::new(HashSet::new()),
            obs,
        })
    }

    /// The process-unique uid keying this open's entries in its frame
    /// cache; [`FrameCache::invalidate_archive`] with this uid drops them.
    pub fn archive_uid(&self) -> u64 {
        self.uid
    }

    /// The frame cache this open decodes into.
    pub fn frame_cache(&self) -> &Arc<FrameCache> {
        &self.frames
    }

    /// Function ids present in the archive, most-called first (frame
    /// order), excluding degraded sentinels.
    pub fn function_ids(&self) -> Vec<FuncId> {
        self.index.function_ids()
    }

    /// Number of live (non-degraded) functions.
    pub fn function_count(&self) -> usize {
        self.index.function_count()
    }

    /// The recorded call count of `func`, if present.
    pub fn call_count(&self, func: FuncId) -> Option<u64> {
        self.index.call_count(func)
    }

    /// The embedded name of `func` (live or degraded), if the archive
    /// carries one.
    pub fn function_name(&self, func: FuncId) -> Option<&str> {
        self.index.function_name(func)
    }

    /// Looks up a function id by embedded name, in footer order. Degraded
    /// functions resolve too; reading one reports
    /// [`ArchiveError::DegradedFunction`].
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.index.function_by_name(name)
    }

    /// Functions recorded as failed during a degraded compaction run.
    pub fn failed_functions(&self) -> &[(FuncId, u32)] {
        self.index.failed_functions()
    }

    /// Whether the archive was produced by a degraded run.
    pub fn is_degraded(&self) -> bool {
        self.index.is_degraded()
    }

    /// Number of distinct functions decoded at least once (later cache
    /// evictions don't lower this).
    pub fn decoded_count(&self) -> usize {
        lock_unpoisoned(&self.decoded).len()
    }

    /// Decompresses and decodes the dynamic call graph from the resident
    /// (already verified) index.
    ///
    /// # Errors
    ///
    /// Returns a decoding error for corrupt archives.
    pub fn read_dcg(&self) -> Result<Dcg, ArchiveError> {
        self.index.read_dcg()
    }

    /// Reads one function, decoding its frame from disk on first access
    /// and serving a cached [`Arc`] afterwards. Identical result to
    /// [`TwppArchive::read_function`] on the same file.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::UnknownFunction`] / [`ArchiveError::DegradedFunction`]
    /// for absent or degraded ids; checksum or decode errors if *this*
    /// function's frame is corrupt (detected at first access, not open).
    pub fn read_function(&self, func: FuncId) -> Result<Arc<FunctionRecord>, ArchiveError> {
        self.read_function_inner(func, None)
    }

    /// Like [`LazyArchive::read_function`], charging the frame's bytes to
    /// `budget` *before* reading it from disk. Cache hits charge nothing:
    /// the bytes were already paid for when the frame was first decoded.
    ///
    /// # Errors
    ///
    /// [`ArchiveError::Stopped`] when the budget runs out; otherwise the
    /// same as [`LazyArchive::read_function`].
    pub fn read_function_governed(
        &self,
        func: FuncId,
        budget: &Budget,
    ) -> Result<Arc<FunctionRecord>, ArchiveError> {
        self.read_function_inner(func, Some(budget))
    }

    fn read_function_inner(
        &self,
        func: FuncId,
        budget: Option<&Budget>,
    ) -> Result<Arc<FunctionRecord>, ArchiveError> {
        if let Some(rec) = self.frames.get(self.uid, func) {
            return Ok(rec);
        }
        let e = self.index.entry(func)?;
        let frame_len = self.index.frame_len(&e) as u64;
        if let Some(budget) = budget {
            budget
                .charge_bytes(frame_len)
                .map_err(ArchiveError::Stopped)?;
        }
        let rec = Arc::new(self.index.read_frame(&self.file, e)?);
        let first_decode = lock_unpoisoned(&self.decoded).insert(func);
        if first_decode && self.obs.is_enabled() {
            self.obs
                .counter(
                    "twpp_core_frames_decoded_lazy",
                    "Archive frames decoded on first access through a lazy open",
                )
                .inc();
        }
        Ok(self.frames.insert_or_get(self.uid, func, rec, frame_len))
    }
}

impl std::fmt::Debug for LazyArchive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyArchive")
            .field("functions", &self.index.function_count())
            .field("failed", &self.index.failed_functions().len())
            .field("decoded", &self.decoded_count())
            .finish_non_exhaustive()
    }
}

impl TwppArchive {
    /// Opens `path` as a [`LazyArchive`]: index verified eagerly,
    /// function frames decoded on first access. See the
    /// [module docs](crate::lazy) for the exact trust boundary.
    ///
    /// # Errors
    ///
    /// Same as [`LazyArchive::open`].
    pub fn open_lazy(path: &Path) -> Result<LazyArchive, ArchiveError> {
        LazyArchive::open(path)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::gov::Limits;
    use crate::pipeline::compact;
    use crate::timestamped::Codec;
    use std::collections::HashMap as Map;
    use twpp_tracer::{RawWpp, WppEvent};

    fn sample_wpp() -> RawWpp {
        let f0 = FuncId::from_index(0);
        let f1 = FuncId::from_index(1);
        let b = twpp_ir::BlockId::new;
        let mut ev = vec![WppEvent::Enter(f0)];
        for i in 0..12u32 {
            ev.push(WppEvent::Block(b(i % 3 + 1)));
            if i % 4 == 0 {
                ev.push(WppEvent::Enter(f1));
                ev.push(WppEvent::Block(b(1)));
                ev.push(WppEvent::Block(b(i % 5 + 2)));
                ev.push(WppEvent::Exit);
            }
        }
        ev.push(WppEvent::Exit);
        RawWpp::from_events(&ev)
    }

    fn write_archive(dir: &std::path::Path, codec: Codec) -> std::path::PathBuf {
        let c = compact(&sample_wpp()).unwrap();
        let mut names = Map::new();
        names.insert(FuncId::from_index(0), "main".to_owned());
        let a = TwppArchive::from_compacted_codec(&c, &names, 1, &[], &Obs::noop(), codec);
        let path = dir.join(format!("{}.twpa", codec.as_str()));
        a.save(&path).unwrap();
        path
    }

    #[test]
    fn lazy_matches_eager_for_both_codecs() {
        let dir = tempdir();
        for codec in [Codec::Legacy, Codec::Adaptive] {
            let path = write_archive(&dir, codec);
            let eager = TwppArchive::load(&path).unwrap();
            let lazy = TwppArchive::open_lazy(&path).unwrap();
            assert_eq!(lazy.function_ids(), eager.function_ids());
            assert_eq!(lazy.decoded_count(), 0, "open must not decode frames");
            for func in eager.function_ids() {
                let e = eager.read_function(func).unwrap();
                let l = lazy.read_function(func).unwrap();
                assert_eq!(*l, e);
                assert_eq!(lazy.call_count(func), eager.call_count(func));
            }
            assert_eq!(lazy.decoded_count(), eager.function_ids().len());
            assert_eq!(
                lazy.read_dcg().unwrap().to_words(),
                eager.read_dcg().unwrap().to_words()
            );
            assert_eq!(lazy.function_name(FuncId::from_index(0)), Some("main"));
            assert_eq!(lazy.function_by_name("main"), Some(FuncId::from_index(0)));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_hits_reuse_the_same_record() {
        let dir = tempdir();
        let path = write_archive(&dir, Codec::Legacy);
        let lazy = TwppArchive::open_lazy(&path).unwrap();
        let func = lazy.function_ids()[0];
        let a = lazy.read_function(func).unwrap();
        let b = lazy.read_function(func).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(lazy.decoded_count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn obs_counter_counts_first_decodes_only() {
        let dir = tempdir();
        let path = write_archive(&dir, Codec::Legacy);
        let obs = Obs::collecting();
        let cache = Arc::new(FrameCache::new(DEFAULT_FRAME_CACHE_BYTES));
        let lazy = LazyArchive::open_with_cache(&path, cache, obs.clone()).unwrap();
        let funcs = lazy.function_ids();
        for f in &funcs {
            lazy.read_function(*f).unwrap();
            lazy.read_function(*f).unwrap();
        }
        let snap = obs.snapshot();
        let sample = snap.get("twpp_core_frames_decoded_lazy").unwrap();
        assert_eq!(
            sample.value,
            crate::obs::SampleValue::Counter(funcs.len() as u64)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn governed_reads_charge_bytes_and_stop() {
        let dir = tempdir();
        let path = write_archive(&dir, Codec::Legacy);
        let lazy = TwppArchive::open_lazy(&path).unwrap();
        let func = lazy.function_ids()[0];
        // A one-byte budget stops before any I/O happens…
        let tiny = Limits::new().max_bytes(1).start();
        assert!(matches!(
            lazy.read_function_governed(func, &tiny),
            Err(ArchiveError::Stopped(_))
        ));
        // …a roomy one charges the frame and succeeds; the cache hit
        // afterwards charges nothing.
        let roomy = Limits::new().max_bytes(1 << 20).start();
        lazy.read_function_governed(func, &roomy).unwrap();
        let used = roomy.bytes_used();
        assert!(used > 0);
        lazy.read_function_governed(func, &roomy).unwrap();
        assert_eq!(roomy.bytes_used(), used);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_frame_fails_only_on_access() {
        let dir = tempdir();
        let path = write_archive(&dir, Codec::Legacy);
        // Flip one byte in the *last* frame's payload: open must still
        // succeed (metadata is intact), reads of other functions must
        // work, and only the damaged function errors.
        let eager = TwppArchive::load(&path).unwrap();
        let funcs = eager.function_ids();
        assert!(funcs.len() >= 2);
        let mut bytes = std::fs::read(&path).unwrap();
        // Find the last frame by scanning from the end of the data
        // section; corrupt its final payload byte.
        let victim = *funcs.last().unwrap();
        let good: Vec<FuncId> = funcs[..funcs.len() - 1].to_vec();
        // The victim's frame is written last (fewest calls), right before
        // the footer — walk byte flips backwards from the end until one
        // breaks the victim's CRC while leaving the metadata and every
        // other frame intact.
        let mut corrupted = None;
        for i in (0..bytes.len()).rev() {
            let mut trial = bytes.clone();
            trial[i] ^= 0xff;
            if let Ok(a) = TwppArchive::from_bytes(trial.clone()) {
                let victim_bad = a.read_function(victim).is_err();
                let others_ok = good.iter().all(|f| a.read_function(*f).is_ok());
                if victim_bad && others_ok {
                    corrupted = Some(trial);
                    break;
                }
            }
        }
        bytes = corrupted.expect("found a byte whose flip corrupts only the last frame");
        std::fs::write(&path, &bytes).unwrap();
        let lazy = TwppArchive::open_lazy(&path).unwrap();
        for f in &good {
            lazy.read_function(*f).unwrap();
        }
        assert!(matches!(
            lazy.read_function(victim),
            Err(ArchiveError::ChecksumMismatch { .. } | ArchiveError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_and_damaged_metadata_fail_at_open() {
        let dir = tempdir();
        let path = write_archive(&dir, Codec::Legacy);
        let bytes = std::fs::read(&path).unwrap();
        // Truncate the commit marker: NotCommitted at open.
        let cut = dir.join("cut.twpa");
        std::fs::write(&cut, &bytes[..bytes.len() - 2]).unwrap();
        assert!(matches!(
            TwppArchive::open_lazy(&cut),
            Err(ArchiveError::NotCommitted | ArchiveError::Truncated)
        ));
        // Corrupt the header CRC: checksum mismatch at open.
        let mut bad = bytes.clone();
        bad[9] ^= 0xff;
        let badp = dir.join("bad.twpa");
        std::fs::write(&badp, &bad).unwrap();
        assert!(TwppArchive::open_lazy(&badp).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_function_is_reported() {
        let dir = tempdir();
        let path = write_archive(&dir, Codec::Legacy);
        let lazy = TwppArchive::open_lazy(&path).unwrap();
        assert!(matches!(
            lazy.read_function(FuncId::from_index(999)),
            Err(ArchiveError::UnknownFunction(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "twpp-lazy-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
