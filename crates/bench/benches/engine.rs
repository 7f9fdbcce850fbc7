//! Simulator-throughput benchmark: simulated memory operations per second
//! through the deterministic scheduler (host-side performance).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use suv::prelude::*;
use suv::sim::Scheduler;
use suv::types::Addr;

struct Spin {
    cell: Addr,
    iters: u64,
}
impl Workload for Spin {
    fn name(&self) -> &'static str {
        "spin"
    }
    fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
        self.cell = ctx.alloc_lines(8);
    }
    fn run<'a>(&'a self, tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
        Box::pin(async move {
            // Private lines: pure engine/scheduler overhead, no conflicts.
            let base = self.cell + 0x1000 * (1 + tid as u64);
            for i in 0..self.iters {
                ctx.store(base, i).await;
                ctx.load(base).await;
            }
            ctx.barrier().await;
        })
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("uncontended_ops_4core", |b| {
        let cfg = MachineConfig::small_test();
        b.iter(|| {
            let mut w = Spin { cell: 0, iters: 500 };
            run_workload(&cfg, SchemeKind::LogTmSe, &mut w)
        });
    });
    g.bench_function("counter_txns_4core", |b| {
        let cfg = MachineConfig::small_test();
        b.iter(|| {
            let mut w = by_name("ssca2", SuiteScale::Tiny).unwrap();
            run_workload(&cfg, SchemeKind::SuvTm, w.as_mut())
        });
    });
    // One taken baton pass: every core advances one cycle past the queue
    // head, so 16 cores round-robin through yield + dispatch.
    g.bench_function("sched_yield_dispatch_16", |b| {
        let sched = Scheduler::new(16);
        let mut clock = [0u64; 16];
        let mut current = sched.start();
        b.iter(|| {
            clock[current] += 1;
            assert!(sched.yield_decision(current, black_box(clock[current])));
            current = sched.dispatch();
            current
        });
    });
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
