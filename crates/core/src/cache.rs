//! Byte-capped shared LRU caches for the read path.
//!
//! A fleet server holds many archives open and answers queries out of
//! decoded function frames; before this module each [`LazyArchive`]
//! cached every frame it ever decoded, forever, so a long-lived process
//! scanning a large archive eventually held the whole data section live.
//! [`ByteLruCache`] bounds that: entries carry an explicit byte weight,
//! the cache never holds more than its cap, and eviction is
//! least-recently-used. [`FrameCache`] specialises it for decoded
//! function frames keyed by `(archive uid, func)` so one cache can be
//! shared across a whole fleet of lazily-opened archives.
//!
//! [`LazyArchive`]: crate::lazy::LazyArchive

#![deny(clippy::unwrap_used)]

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use twpp_ir::FuncId;

use crate::archive::FunctionRecord;
use crate::obs::Obs;

/// Default byte cap threaded through [`TwppArchive::open_lazy`]: large
/// enough that interactive queries never notice, small enough that a
/// scan over a huge archive cannot hold every frame live.
///
/// [`TwppArchive::open_lazy`]: crate::archive::TwppArchive::open_lazy
pub const DEFAULT_FRAME_CACHE_BYTES: u64 = 64 << 20;

/// See [`lock_unpoisoned`](crate::lazy) — worst case after a poisoning
/// panic is a redundant decode, never a torn entry.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A point-in-time view of a cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a resident entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to stay under the byte cap.
    pub evictions: u64,
    /// Total bytes released by evictions.
    pub evicted_bytes: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry<V> {
    value: V,
    bytes: u64,
    stamp: u64,
}

struct Inner<K, V> {
    map: HashMap<K, Entry<V>>,
    used: u64,
    clock: u64,
}

/// A byte-capped LRU map. `get` refreshes recency; `insert_or_get`
/// evicts least-recently-used entries until the new one fits. An entry
/// larger than the whole cap is never stored (the value is still
/// returned to the caller — the cache degrades to pass-through, it
/// never refuses work). All methods take `&self`; the cache is shared
/// behind an `Arc` across threads.
pub struct ByteLruCache<K, V> {
    cap: u64,
    inner: Mutex<Inner<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> ByteLruCache<K, V> {
    /// Creates a cache holding at most `cap_bytes` of entry weight.
    pub fn new(cap_bytes: u64) -> ByteLruCache<K, V> {
        ByteLruCache {
            cap: cap_bytes,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                used: 0,
                clock: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        }
    }

    /// The byte cap this cache was built with.
    pub fn cap_bytes(&self) -> u64 {
        self.cap
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.get_mut(key) {
            Some(e) => {
                e.stamp = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `value` weighing `bytes` under `key`, evicting LRU
    /// entries first so the cap holds. If the key is already resident
    /// the *existing* value is returned untouched (first insert wins —
    /// concurrent decoders converge on one canonical `Arc`). A value
    /// heavier than the whole cap is returned without being stored.
    pub fn insert_or_get(&self, key: K, value: V, bytes: u64) -> V {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(e) = inner.map.get_mut(&key) {
            e.stamp = clock;
            return e.value.clone();
        }
        if bytes > self.cap {
            return value;
        }
        while inner.used + bytes > self.cap {
            let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = inner.map.remove(&victim) {
                inner.used -= e.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.evicted_bytes.fetch_add(e.bytes, Ordering::Relaxed);
            }
        }
        inner.used += bytes;
        inner.map.insert(
            key,
            Entry {
                value: value.clone(),
                bytes,
                stamp: clock,
            },
        );
        value
    }

    /// Drops every entry whose key fails `keep`, returning the number
    /// removed. Used to invalidate one archive's frames on rescan.
    pub fn retain(&self, mut keep: impl FnMut(&K) -> bool) -> usize {
        let mut inner = lock_unpoisoned(&self.inner);
        let before = inner.map.len();
        let mut freed = 0u64;
        inner.map.retain(|k, e| {
            if keep(k) {
                true
            } else {
                freed += e.bytes;
                false
            }
        });
        inner.used -= freed;
        before - inner.map.len()
    }

    /// Drops everything.
    pub fn clear(&self) {
        self.retain(|_| false);
    }

    /// Bytes currently resident (always `<= cap_bytes`).
    pub fn resident_bytes(&self) -> u64 {
        lock_unpoisoned(&self.inner).used
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        let (used, entries) = {
            let inner = lock_unpoisoned(&self.inner);
            (inner.used, inner.map.len() as u64)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            resident_bytes: used,
            entries,
        }
    }
}

impl<K, V> std::fmt::Debug for ByteLruCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock_unpoisoned(&self.inner);
        f.debug_struct("ByteLruCache")
            .field("cap", &self.cap)
            .field("used", &inner.used)
            .field("entries", &inner.map.len())
            .finish_non_exhaustive()
    }
}

/// Process-unique archive uid source; every lazy open gets a fresh one,
/// so a re-opened (replaced) archive never aliases stale cache entries.
static NEXT_ARCHIVE_UID: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique archive uid.
pub fn next_archive_uid() -> u64 {
    NEXT_ARCHIVE_UID.fetch_add(1, Ordering::Relaxed)
}

/// A decoded-frame cache shared across archives: keyed by
/// `(archive uid, func)`, weighted by the on-disk frame length, and
/// exported to `obs` under the `twpp_serve_frame_cache_*` counters.
pub struct FrameCache {
    lru: ByteLruCache<(u64, FuncId), Arc<FunctionRecord>>,
    obs: Obs,
}

impl FrameCache {
    /// Creates a frame cache with the given byte cap and a no-op obs.
    pub fn new(cap_bytes: u64) -> FrameCache {
        FrameCache::observed(cap_bytes, Obs::noop())
    }

    /// Like [`FrameCache::new`], additionally recording
    /// `twpp_serve_frame_cache_{hits,misses,evicted_bytes}_total` into
    /// `obs` as lookups happen.
    pub fn observed(cap_bytes: u64, obs: Obs) -> FrameCache {
        FrameCache {
            lru: ByteLruCache::new(cap_bytes),
            obs,
        }
    }

    /// Looks up one decoded frame.
    pub fn get(&self, archive_uid: u64, func: FuncId) -> Option<Arc<FunctionRecord>> {
        let hit = self.lru.get(&(archive_uid, func));
        if self.obs.is_enabled() {
            if hit.is_some() {
                self.obs
                    .counter(
                        "twpp_serve_frame_cache_hits_total",
                        "Frame-cache lookups served from a resident decoded frame",
                    )
                    .inc();
            } else {
                self.obs
                    .counter(
                        "twpp_serve_frame_cache_misses_total",
                        "Frame-cache lookups that had to decode from disk",
                    )
                    .inc();
            }
        }
        hit
    }

    /// Inserts a decoded frame weighing `bytes` (its on-disk frame
    /// length), returning the canonical resident `Arc` (the existing one
    /// if another thread decoded the same frame first).
    pub fn insert_or_get(
        &self,
        archive_uid: u64,
        func: FuncId,
        rec: Arc<FunctionRecord>,
        bytes: u64,
    ) -> Arc<FunctionRecord> {
        // `stats()` takes the LRU lock, so read it only when it is reported.
        let before = self
            .obs
            .is_enabled()
            .then(|| self.lru.stats().evicted_bytes);
        let out = self.lru.insert_or_get((archive_uid, func), rec, bytes);
        if let Some(before) = before {
            let freed = self.lru.stats().evicted_bytes - before;
            if freed > 0 {
                self.obs
                    .counter(
                        "twpp_serve_frame_cache_evicted_bytes_total",
                        "Bytes of decoded frames evicted to stay under the cache cap",
                    )
                    .add(freed);
            }
        }
        out
    }

    /// Drops every frame belonging to `archive_uid` (rescan removed or
    /// replaced the archive), returning the number evicted.
    pub fn invalidate_archive(&self, archive_uid: u64) -> usize {
        self.lru.retain(|(uid, _)| *uid != archive_uid)
    }

    /// The byte cap.
    pub fn cap_bytes(&self) -> u64 {
        self.lru.cap_bytes()
    }

    /// Bytes currently resident (always `<= cap_bytes`).
    pub fn resident_bytes(&self) -> u64 {
        self.lru.resident_bytes()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats()
    }
}

impl std::fmt::Debug for FrameCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameCache").field("lru", &self.lru).finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn cap_holds_and_eviction_is_lru() {
        let c: ByteLruCache<u32, u32> = ByteLruCache::new(10);
        c.insert_or_get(1, 10, 4);
        c.insert_or_get(2, 20, 4);
        assert_eq!(c.resident_bytes(), 8);
        // Touch 1 so 2 is the LRU victim.
        assert_eq!(c.get(&1), Some(10));
        c.insert_or_get(3, 30, 4);
        assert!(c.resident_bytes() <= 10);
        assert_eq!(c.get(&2), None, "LRU entry evicted");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.evicted_bytes, 4);
    }

    #[test]
    fn oversize_entries_pass_through_unstored() {
        let c: ByteLruCache<u32, u32> = ByteLruCache::new(4);
        assert_eq!(c.insert_or_get(1, 99, 100), 99);
        assert_eq!(c.len(), 0);
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn first_insert_wins() {
        let c: ByteLruCache<u32, u32> = ByteLruCache::new(100);
        assert_eq!(c.insert_or_get(1, 10, 4), 10);
        assert_eq!(c.insert_or_get(1, 20, 4), 10, "existing value is canonical");
        assert_eq!(c.resident_bytes(), 4, "duplicate insert charges nothing");
    }

    #[test]
    fn retain_invalidates_and_frees_bytes() {
        let c: ByteLruCache<(u64, u32), u32> = ByteLruCache::new(100);
        c.insert_or_get((1, 0), 1, 10);
        c.insert_or_get((2, 0), 2, 10);
        assert_eq!(c.retain(|(uid, _)| *uid != 1), 1);
        assert_eq!(c.resident_bytes(), 10);
        assert_eq!(c.get(&(1, 0)), None);
        assert_eq!(c.get(&(2, 0)), Some(2));
    }

    #[test]
    fn archive_uids_are_unique() {
        let a = next_archive_uid();
        let b = next_archive_uid();
        assert_ne!(a, b);
    }

    #[test]
    fn frame_cache_counters_reach_obs() {
        let obs = Obs::collecting();
        let cache = FrameCache::observed(1 << 20, obs.clone());
        let func = FuncId::from_index(0);
        assert!(cache.get(1, func).is_none());
        let snap = obs.snapshot();
        let miss = snap.get("twpp_serve_frame_cache_misses_total").unwrap();
        assert_eq!(miss.value, crate::obs::SampleValue::Counter(1));
    }
}
