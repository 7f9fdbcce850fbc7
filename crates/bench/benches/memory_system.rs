//! Microbenchmarks: the MESI hierarchy timing model.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use suv::coherence::{AccessKind, MemorySystem};
use suv::types::MachineConfig;

fn bench_mem(c: &mut Criterion) {
    let cfg = MachineConfig::default();
    let mut g = c.benchmark_group("memory_system");
    g.bench_function("l1_hit", |b| {
        let mut s = MemorySystem::new(&cfg);
        s.fill(0, 0, 0x1000, AccessKind::Load);
        b.iter(|| black_box(s.access_hit(0, 0x1000, AccessKind::Load)));
    });
    g.bench_function("cold_fill", |b| {
        let mut s = MemorySystem::new(&cfg);
        let mut a = 0u64;
        let mut now = 0u64;
        b.iter(|| {
            let f = s.fill(now, (a % 16) as usize, 0x10_0000 + a * 64, AccessKind::Load);
            now += f.latency;
            a += 1;
            black_box(f.latency)
        });
    });
    g.bench_function("ping_pong_ownership", |b| {
        let mut s = MemorySystem::new(&cfg);
        let mut now = 0u64;
        let mut side = 0usize;
        b.iter(|| {
            let f = s.fill(now, side, 0x5000, AccessKind::Store);
            now += f.latency;
            side ^= 1;
            black_box(f.latency)
        });
    });
    // The transaction-end gang-clear with a full L1 (512 resident lines)
    // of which a small write set is marked.
    g.bench_function("clear_speculative_4_marked", |b| {
        let mut s = MemorySystem::new(&cfg);
        let lines = cfg.l1.lines() as u64;
        for i in 0..lines {
            s.fill(0, 0, 0x10_0000 + i * 64, AccessKind::Store);
        }
        assert_eq!(s.l1_len(0), lines as usize);
        b.iter(|| {
            for i in 0..4 {
                s.mark_speculative(0, 0x10_0000 + i * 0x1040);
            }
            black_box(s.clear_speculative(0))
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mem
}
criterion_main!(benches);
