//! Microbenchmarks: the SUV redirect table (lookup / insert / flash).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use suv::core::{RedirectTable, Transient};
use suv::mem::{PoolAllocator, Region};
use suv::sig::SummarySignature;
use suv::types::SuvConfig;

fn bench_table(c: &mut Criterion) {
    let cfg = SuvConfig::default();
    let mut g = c.benchmark_group("redirect_table");
    g.bench_function("lookup_l1_hit", |b| {
        let mut t = RedirectTable::new(16, &cfg);
        let mut sum = SummarySignature::new(2048, 2);
        let mut pool = PoolAllocator::new(Region::pool());
        for i in 0..256u64 {
            let (slot, _) = pool.alloc_slot();
            t.insert_transient(0, 0x1000 + i * 64, Transient::New { slot });
        }
        t.commit(0, &mut sum, &mut pool);
        let mut i = 0u64;
        b.iter(|| {
            black_box(t.lookup(0, 0x1000 + (i % 256) * 64));
            i += 1;
        });
    });
    g.bench_function("lookup_miss", |b| {
        let mut t = RedirectTable::new(16, &cfg);
        let mut i = 0u64;
        b.iter(|| {
            black_box(t.lookup(0, 0x100_0000 + i * 64));
            i += 1;
        });
    });
    g.bench_function("lookup_l1_full_miss", |b| {
        // A full first level (every core-0 entry resident) probed for
        // lines it does not hold: the worst case of a scanning CAM model.
        let mut t = RedirectTable::new(16, &cfg);
        let mut sum = SummarySignature::new(2048, 2);
        let mut pool = PoolAllocator::new(Region::pool());
        for i in 0..cfg.l1_entries as u64 {
            let (slot, _) = pool.alloc_slot();
            t.insert_transient(0, 0x1000 + i * 64, Transient::New { slot });
        }
        t.commit(0, &mut sum, &mut pool);
        let mut i = 0u64;
        b.iter(|| {
            black_box(t.lookup(0, 0x100_0000 + i * 64));
            i += 1;
        });
    });
    g.bench_function("tx_insert_commit_32", |b| {
        let mut t = RedirectTable::new(16, &cfg);
        let mut sum = SummarySignature::new(2048, 2);
        let mut pool = PoolAllocator::new(Region::pool());
        let mut base = 0u64;
        b.iter(|| {
            // A fixed 4K-line window: every other visit redirects back,
            // so the table stays bounded and both entry paths are timed.
            for i in 0..32u64 {
                let line = 0x2000 + ((base + i) % 4096) * 64;
                let redirected = t.lookup(0, line).0.is_some_and(|h| h.committed.is_some());
                if redirected {
                    t.insert_transient(0, line, Transient::DeleteGlobal);
                } else {
                    let (slot, _) = pool.alloc_slot();
                    t.insert_transient(0, line, Transient::New { slot });
                }
            }
            t.commit(0, &mut sum, &mut pool);
            base += 32;
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_table
}
criterion_main!(benches);
