//! Legacy vs adaptive timestamp-set codec: encode and decode throughput.
//!
//! The adaptive codec (DESIGN.md §16) picks raw, `l:h:s`, or
//! delta-of-delta per series, smallest wins. Its contract is "never
//! larger than legacy, round-trips exactly"; these benches put numbers
//! on what the selection costs at encode time and saves at decode time,
//! plus a lazy-open comparison showing the O(footer) open path.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, Criterion};
use twpp::obs::Obs;
use twpp::{Codec, TwppArchive};
use twpp_workloads::{generate, Profile};

fn bench(c: &mut Criterion) {
    let workload = generate(&Profile::Gcc.spec().scaled(0.02));
    let (compacted, _) = twpp::compact_governed(&workload.wpp, &twpp::GovOptions::default())
        .expect("generated WPPs are well-formed");
    let names = HashMap::new();
    let noop = Obs::noop();

    let mut group = c.benchmark_group("codec");
    group.sample_size(10);

    for codec in [Codec::Legacy, Codec::Adaptive] {
        group.bench_function(format!("encode_{}", codec.as_str()).as_str(), |b| {
            b.iter(|| {
                TwppArchive::from_compacted_codec(
                    std::hint::black_box(&compacted),
                    &names,
                    1,
                    &[],
                    &noop,
                    codec,
                )
                .byte_len()
            })
        });

        let archive = TwppArchive::from_compacted_codec(&compacted, &names, 1, &[], &noop, codec);
        group.bench_function(format!("decode_{}", codec.as_str()).as_str(), |b| {
            b.iter(|| {
                TwppArchive::from_bytes(std::hint::black_box(archive.as_bytes()).to_vec())
                    .expect("fresh archive parses")
                    .to_compacted()
                    .expect("fresh archive decodes")
                    .functions
                    .len()
            })
        });
    }

    // Open cost: eager decode-everything parse versus the lazy O(footer)
    // open that defers frame decoding to first access.
    let archive = TwppArchive::from_compacted_codec(&compacted, &names, 1, &[], &noop, Codec::Adaptive);
    let dir = std::env::temp_dir().join(format!("twpp-bench-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("bench.twpa");
    std::fs::write(&path, archive.as_bytes()).expect("write bench archive");

    group.bench_function("open_eager", |b| {
        b.iter(|| {
            TwppArchive::from_bytes(std::fs::read(&path).expect("read archive"))
                .expect("archive parses")
                .function_ids()
                .len()
        })
    });
    group.bench_function("open_lazy", |b| {
        b.iter(|| {
            TwppArchive::open_lazy(std::hint::black_box(&path))
                .expect("archive opens")
                .function_count()
        })
    });

    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench);
criterion_main!(benches);
