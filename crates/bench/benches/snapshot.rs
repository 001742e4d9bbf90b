//! Criterion benches for the columnar (v4) snapshot: save and zero-copy
//! open on one 256K XMark document. (`BENCH_snapshot.json` is the
//! historical v3-vs-v4 cold-start record; perfbench's
//! `index.snapshot_open_ms` tracks the open from here on.)

use criterion::{criterion_group, criterion_main, Criterion};
use pimento::Engine;

fn bench_snapshot_formats(c: &mut Criterion) {
    let xml = pimento_datagen::generate_xmark(7, 256 * 1024);
    let engine = Engine::from_xml_docs(&[xml]).expect("corpus parses");
    let v4 = engine.save_snapshot();
    let v4_bytes = bytes::Bytes::from(v4.to_vec());

    c.bench_function("snapshot_save_v4_256K", |b| {
        b.iter(|| {
            let s = engine.save_snapshot();
            assert!(!s.is_empty());
        })
    });
    c.bench_function("snapshot_open_v4_256K", |b| {
        b.iter(|| {
            let e = Engine::from_snapshot_bytes(v4_bytes.clone()).expect("v4 opens");
            assert_eq!(e.snapshot_format(), Some(4));
        })
    });
}

criterion_group!(benches, bench_snapshot_formats);
criterion_main!(benches);
