//! The byte-capped LRU behind the frame and summary caches: `insert_or_get`
//! into a full cache (every insert evicts the least recently used entry)
//! and `get` hits, at 1 k, 10 k and 100 k resident entries. Each
//! iteration runs 1 000 operations; per-operation cost should not grow
//! with the entry count.

use criterion::{criterion_group, criterion_main, Criterion};
use twpp::cache::ByteLruCache;

const OPS: u64 = 1_000;

fn full_cache(entries: u64) -> ByteLruCache<u64, u64> {
    let cache = ByteLruCache::new(entries);
    for k in 0..entries {
        cache.insert_or_get(k, k, 1);
    }
    cache
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    for entries in [1_000u64, 10_000, 100_000] {
        let cache = full_cache(entries);
        let mut next = entries;
        group.bench_function(&format!("insert_evict_{entries}_x{OPS}"), |b| {
            b.iter(|| {
                for _ in 0..OPS {
                    cache.insert_or_get(std::hint::black_box(next), next, 1);
                    next += 1;
                }
            })
        });
        assert_eq!(
            cache.len() as u64,
            entries,
            "every insert evicted one entry"
        );

        let cache = full_cache(entries);
        let mut probe = 0u64;
        group.bench_function(&format!("get_hit_{entries}_x{OPS}"), |b| {
            b.iter(|| {
                for _ in 0..OPS {
                    probe = (probe + 7_919) % entries;
                    std::hint::black_box(cache.get(&probe));
                }
            })
        });
        assert_eq!(cache.stats().misses, 0, "every probe hit");
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
