//! CRC32 throughput: the slice-by-16 kernel behind every integrity check
//! (archive regions, segments, WAL records, net frames) against the
//! bytewise table loop it replaced, at a net-frame header (64 B), an
//! ingest batch (4 KiB) and a large archive frame (64 KiB).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use twpp_ir::checksum::crc32;

const fn byte_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static BYTE_TABLE: [u32; 256] = byte_table();

/// One dependent table lookup per byte.
fn bytewise(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ BYTE_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

fn bench(c: &mut Criterion) {
    let data: Vec<u8> = (0..64 * 1024u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    assert_eq!(crc32(&data), bytewise(&data), "kernel and reference agree");
    let mut group = c.benchmark_group("checksum");
    for len in [64usize, 4096, 65536] {
        let input = &data[..len];
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(&format!("slice16_{len}"), |b| {
            b.iter(|| crc32(std::hint::black_box(input)))
        });
        group.bench_function(&format!("bytewise_{len}"), |b| {
            b.iter(|| bytewise(std::hint::black_box(input)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
