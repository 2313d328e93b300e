//! Thread-count scaling of the parallel compaction pipeline and the
//! archive encode / recovery paths.
//!
//! The parallel layer guarantees byte-identical output at every thread
//! count, so the only observable difference is wall time — these benches
//! measure that across 1, 2, 4, and all-hardware threads on a
//! multi-function gcc-shaped workload.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, Criterion};
use twpp::obs::Obs;
use twpp::{compact_governed, default_threads, Codec, GovOptions, TwppArchive};
use twpp_workloads::{generate, Profile};

fn thread_counts() -> Vec<usize> {
    let hw = default_threads();
    let mut counts = vec![1usize, 2, 4];
    if hw > 4 {
        counts.push(hw);
    }
    counts.dedup();
    counts
}

fn on_threads(threads: usize) -> GovOptions {
    GovOptions {
        threads: Some(threads),
        ..GovOptions::default()
    }
}

fn bench(c: &mut Criterion) {
    let workload = generate(&Profile::Gcc.spec().scaled(0.05));
    let wpp = &workload.wpp;
    let (compacted, _) = compact_governed(wpp, &on_threads(1)).unwrap();
    let names = HashMap::new();
    let noop = Obs::noop();
    let committed =
        TwppArchive::from_compacted_codec(&compacted, &names, 1, &[], &noop, Codec::Legacy);
    // A torn write forces fsck onto the frame-scan path.
    let torn = &committed.as_bytes()[..committed.byte_len() - 64];

    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);

    for threads in thread_counts() {
        group.bench_function(&format!("compact_t{threads}"), |b| {
            let options = on_threads(threads);
            b.iter(|| {
                compact_governed(std::hint::black_box(wpp), &options)
                    .unwrap()
                    .0
                    .functions
                    .len()
            })
        });
        group.bench_function(&format!("archive_encode_t{threads}"), |b| {
            b.iter(|| {
                TwppArchive::from_compacted_codec(
                    std::hint::black_box(&compacted),
                    &names,
                    threads,
                    &[],
                    &noop,
                    Codec::Legacy,
                )
                .byte_len()
            })
        });
        group.bench_function(&format!("recover_clean_t{threads}"), |b| {
            b.iter(|| {
                TwppArchive::recover_observed(
                    std::hint::black_box(committed.as_bytes()),
                    threads,
                    &noop,
                )
                .unwrap()
                .1
                .salvaged_functions()
            })
        });
        group.bench_function(&format!("recover_torn_t{threads}"), |b| {
            b.iter(|| {
                TwppArchive::recover_observed(std::hint::black_box(torn), threads, &noop)
                    .unwrap()
                    .1
                    .salvaged_functions()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
