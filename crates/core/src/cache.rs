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
//! Recency is an intrusive doubly linked list over a slab of entries,
//! indexed by a `HashMap` from key to slab slot: a hit, an insert and
//! each eviction are O(1) expected time, so a cache holding 100 000
//! entries evicts as cheaply as one holding ten.
//!
//! [`LazyArchive`]: crate::lazy::LazyArchive

#![deny(clippy::unwrap_used)]

use std::borrow::Borrow;
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

/// Slab index standing for "no node" at either end of the recency list.
const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    bytes: u64,
}

/// One slab slot: its links in the recency list, or (while the slot
/// is free) in the free list, which chains through `next`.
struct Node<K, V> {
    prev: usize,
    next: usize,
    /// `None` exactly while the slot is on the free list.
    entry: Option<Entry<K, V>>,
}

struct Inner<K, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot: the next eviction victim.
    tail: usize,
    /// First free slot.
    free: usize,
    used: u64,
}

impl<K: Eq + Hash, V> Inner<K, V> {
    fn entry(&self, i: usize) -> &Entry<K, V> {
        self.nodes[i]
            .entry
            .as_ref()
            .expect("slots reachable from the map or the recency list hold an entry")
    }

    fn unlink(&mut self, i: usize) {
        let Node { prev, next, .. } = self.nodes[i];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.nodes[h].prev = i,
        }
        self.head = i;
    }

    /// Marks slot `i` most recently used.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Stores `entry` in a free slot (or a new one) at the head.
    fn push(&mut self, entry: Entry<K, V>) -> usize {
        let node = Node {
            prev: NIL,
            next: NIL,
            entry: Some(entry),
        };
        let i = match self.free {
            NIL => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
            i => {
                self.free = self.nodes[i].next;
                self.nodes[i] = node;
                i
            }
        };
        self.push_front(i);
        i
    }

    /// Unlinks slot `i`, returns it to the free list and removes its
    /// key from the map, handing back the entry it held.
    fn remove(&mut self, i: usize) -> Entry<K, V> {
        self.unlink(i);
        let node = &mut self.nodes[i];
        let e = node.entry.take().expect("a linked slot holds an entry");
        node.next = self.free;
        self.free = i;
        self.map.remove(&e.key);
        self.used -= e.bytes;
        e
    }
}

/// A byte-capped LRU map. `get` refreshes recency; `insert_or_get`
/// evicts least-recently-used entries until the new one fits. An entry
/// larger than the whole cap is never stored (the value is still
/// returned to the caller — the cache degrades to pass-through, it
/// never refuses work). All methods take `&self`; the cache is shared
/// behind an `Arc` across threads.
///
/// Entries live in a slab `Vec` threaded by an intrusive doubly linked
/// recency list (`prev`/`next` slot indices, most recent at the head),
/// with a `HashMap` from key to slot. A hit moves its slot to the head
/// and eviction pops the tail, so `get`, `insert_or_get` and each
/// eviction cost O(1) expected time whatever the entry count; `retain`
/// is O(entries). Freed slots go on a free list and are reused, so the
/// slab never outgrows the most entries ever resident at once.
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
                nodes: Vec::new(),
                head: NIL,
                tail: NIL,
                free: NIL,
                used: 0,
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

    /// Looks up `key` (any borrowed form of `K`, so a lookup need not
    /// build an owned key), refreshing its recency on a hit.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: ?Sized + Hash + Eq,
    {
        let mut inner = lock_unpoisoned(&self.inner);
        match inner.map.get(key).copied() {
            Some(i) => {
                inner.touch(i);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(inner.entry(i).value.clone())
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
        self.insert_or_get_evicting(key, value, bytes).0
    }

    /// [`insert_or_get`](Self::insert_or_get), also returning the bytes
    /// this call evicted to make room (`0` on a hit or a pass-through).
    pub fn insert_or_get_evicting(&self, key: K, value: V, bytes: u64) -> (V, u64) {
        let mut inner = lock_unpoisoned(&self.inner);
        if let Some(&i) = inner.map.get(&key) {
            inner.touch(i);
            return (inner.entry(i).value.clone(), 0);
        }
        if bytes > self.cap {
            return (value, 0);
        }
        // Clone before touching the list: a panicking clone leaves it whole.
        let entry = Entry {
            key: key.clone(),
            value: value.clone(),
            bytes,
        };
        let (mut evicted, mut freed) = (0u64, 0u64);
        while inner.used + bytes > self.cap && inner.tail != NIL {
            let tail = inner.tail;
            freed += inner.remove(tail).bytes;
            evicted += 1;
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            self.evicted_bytes.fetch_add(freed, Ordering::Relaxed);
        }
        let i = inner.push(entry);
        inner.used += bytes;
        inner.map.insert(key, i);
        (value, freed)
    }

    /// Drops every entry whose key fails `keep`, returning the number
    /// removed. `keep` sees the keys from most to least recently used
    /// and does not refresh them. Used to invalidate one archive's
    /// frames on rescan.
    pub fn retain(&self, mut keep: impl FnMut(&K) -> bool) -> usize {
        let mut inner = lock_unpoisoned(&self.inner);
        let mut removed = 0;
        let mut i = inner.head;
        while i != NIL {
            let next = inner.nodes[i].next;
            if !keep(&inner.entry(i).key) {
                inner.remove(i);
                removed += 1;
            }
            i = next;
        }
        removed
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

    /// Slab slots allocated: resident entries plus freed slots awaiting
    /// reuse. Never more than the most entries ever resident at once.
    pub fn slots(&self) -> usize {
        lock_unpoisoned(&self.inner).nodes.len()
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
        let (out, freed) = self
            .lru
            .insert_or_get_evicting((archive_uid, func), rec, bytes);
        if freed > 0 && self.obs.is_enabled() {
            self.obs
                .counter(
                    "twpp_serve_frame_cache_evicted_bytes_total",
                    "Bytes of decoded frames evicted to stay under the cache cap",
                )
                .add(freed);
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
