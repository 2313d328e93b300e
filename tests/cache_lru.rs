//! The byte-capped LRU behind the frame and summary caches
//! ([`ByteLruCache`]), checked step by step against a min-stamp
//! reference model, and driven at 100 000 entries to pin the victim
//! order and the slab's slot reuse at a size where a scan per eviction
//! would be quadratic.

use std::collections::HashMap;

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use twpp_repro::twpp::cache::ByteLruCache;

/// Keys `0..12` weigh `1 << key` bytes, so resident bytes and evicted
/// bytes are bitmasks of the keys they count; key 12 weighs nothing.
const KEYS: u8 = 13;

fn weight(key: u8) -> u64 {
    if key == 12 {
        0
    } else {
        1 << key
    }
}

/// The documented semantics, spelled out: `key -> (value, last-touch
/// stamp)` with the minimum stamp evicted first.
struct Model {
    cap: u64,
    map: HashMap<u8, (u64, u64)>,
    clock: u64,
    evictions: u64,
}

impl Model {
    fn used(&self) -> u64 {
        self.map.keys().map(|&k| weight(k)).sum()
    }

    fn get(&mut self, key: u8) -> Option<u64> {
        self.clock += 1;
        let e = self.map.get_mut(&key)?;
        e.1 = self.clock;
        Some(e.0)
    }

    /// Returns the resident value and the bytes evicted.
    fn insert(&mut self, key: u8, value: u64) -> (u64, u64) {
        if let Some(v) = self.get(key) {
            return (v, 0);
        }
        let bytes = weight(key);
        if bytes > self.cap {
            return (value, 0);
        }
        let mut freed = 0;
        while self.used() + bytes > self.cap {
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
            else {
                break;
            };
            self.map.remove(&victim);
            freed += weight(victim);
            self.evictions += 1;
        }
        self.map.insert(key, (value, self.clock));
        (value, freed)
    }
}

#[test]
fn random_ops_match_the_min_stamp_model() {
    for seed in 0..24u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cap = rng.gen_range(1u64..4096);
        let cache: ByteLruCache<u8, u64> = ByteLruCache::new(cap);
        let mut model = Model {
            cap,
            map: HashMap::new(),
            clock: 0,
            evictions: 0,
        };
        for step in 0..1500u64 {
            let key = rng.gen_range(0..KEYS);
            match rng.gen_range(0..20u32) {
                0..=8 => {
                    let got = cache.insert_or_get_evicting(key, step, weight(key));
                    assert_eq!(
                        got,
                        model.insert(key, step),
                        "seed {seed} step {step}: insert {key}"
                    );
                }
                9..=17 => {
                    assert_eq!(
                        cache.get(&key),
                        model.get(key),
                        "seed {seed} step {step}: get {key}"
                    );
                }
                18 => {
                    let dropped = cache.retain(|k| *k < key);
                    let before = model.map.len();
                    model.map.retain(|k, _| *k < key);
                    assert_eq!(dropped, before - model.map.len());
                }
                _ => {
                    cache.clear();
                    model.map.clear();
                }
            }
            // Weights are distinct powers of two: equal bytes means the
            // same resident key set, so every step's victims matched.
            assert_eq!(
                cache.resident_bytes(),
                model.used(),
                "seed {seed} step {step}"
            );
            assert_eq!(cache.len(), model.map.len(), "seed {seed} step {step}");
            assert!(cache.resident_bytes() <= cap);
            assert_eq!(cache.stats().evictions, model.evictions);
        }
    }
}

/// Keys from most to least recently used, read without touching them.
fn recency(cache: &ByteLruCache<u32, u32>) -> Vec<u32> {
    let mut keys = Vec::with_capacity(cache.len());
    cache.retain(|&k| {
        keys.push(k);
        true
    });
    keys
}

#[test]
fn a_hundred_thousand_entries_evict_in_lru_order_and_reuse_slots() {
    const N: u32 = 100_000;
    let cache: ByteLruCache<u32, u32> = ByteLruCache::new(u64::from(N));
    for k in 0..N {
        assert_eq!(cache.insert_or_get_evicting(k, k, 1), (k, 0));
    }
    assert_eq!((cache.len(), cache.slots()), (N as usize, N as usize));

    // Touch the even keys: the odd ones become the least recent, in
    // ascending order.
    for k in (0..N).step_by(2) {
        assert_eq!(cache.get(&k), Some(k));
    }
    // Each new key evicts exactly one odd key, smallest first.
    for k in N..N + N / 4 {
        assert_eq!(cache.insert_or_get_evicting(k, k, 1), (k, 1));
    }
    let order = recency(&cache);
    let odd_left: Vec<u32> = (N / 2 + 1..N).step_by(2).collect();
    assert_eq!(
        order[order.len() - odd_left.len()..],
        odd_left.iter().rev().copied().collect::<Vec<_>>()[..]
    );
    for k in N + N / 4..N + N / 2 {
        assert_eq!(cache.insert_or_get_evicting(k, k, 1), (k, 1));
    }
    let expected: Vec<u32> = (N..N + N / 2)
        .rev()
        .chain((0..N).step_by(2).rev())
        .collect();
    assert_eq!(recency(&cache), expected);
    assert_eq!(cache.stats().evictions, u64::from(N / 2));
    assert_eq!(cache.slots(), N as usize, "evicted slots are reused");

    // Invalidate a third of the keys; refilling the freed room reuses
    // their slots and evicts nothing.
    let dropped = cache.retain(|k| k % 3 != 0);
    assert_eq!(cache.resident_bytes(), u64::from(N) - dropped as u64);
    let base = N + N / 2;
    for k in base..base + dropped as u32 {
        assert_eq!(cache.insert_or_get_evicting(k, k, 1), (k, 0));
    }
    assert_eq!((cache.len(), cache.slots()), (N as usize, N as usize));
    assert_eq!(cache.stats().evictions, u64::from(N / 2));

    // The least recent survivor is the smallest even key not divisible
    // by three, which the next insert evicts.
    assert_eq!(recency(&cache).last(), Some(&2));
    let next = base + dropped as u32;
    assert_eq!(cache.insert_or_get_evicting(next, next, 1), (next, 1));
    assert_eq!(cache.get(&2), None);
    assert_eq!(cache.resident_bytes(), u64::from(N));
}
