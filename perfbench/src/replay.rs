//! Replays of a run's own event stream through single layers.
//!
//! A fully retained trace says, per core and in order, which lines the
//! run looked up in the redirect table, which lines missed the L1, and
//! which lines its transactions read and wrote. Each replay feeds one of
//! those streams through a fresh instance of one layer's public type and
//! times it, which gives the layer's host cost per operation without a
//! profiler. The streams also check themselves: the number of lookups
//! and fills they hold must equal the run's own `RedirectStats` and
//! `MemStats` counters, and re-emitting the records through a fresh
//! `Tracer` must reproduce the run's trace hash.

use std::hint::black_box;
use std::time::{Duration, Instant};
use suv::cache::TagArray;
use suv::coherence::{AccessKind, MemorySystem};
use suv::core::{LookupHit, RedirectTable, Transient};
use suv::mem::{PoolAllocator, Region};
use suv::noc::Mesh;
use suv::prelude::*;
use suv::sig::SummarySignature;
use suv::trace::{RedirectLevel, TraceRecord};

/// One redirect-table operation of the run, in trace order.
#[derive(Debug, Clone, Copy)]
enum TableOp {
    Lookup(usize, u64),
    /// A new transient on `line`; `true` when the run redirected back.
    Insert(usize, u64, bool),
    Commit(usize),
    Abort(usize),
}

/// One coherence fill of the run.
#[derive(Debug, Clone, Copy)]
struct Fill {
    t: u64,
    core: usize,
    line: u64,
    kind: AccessKind,
}

/// The per-layer streams recovered from a fully retained trace.
#[derive(Debug, Default)]
pub struct Streams {
    table: Vec<TableOp>,
    fills: Vec<Fill>,
    /// Transactional accesses `(core, line)`, in order.
    accesses: Vec<(usize, u64)>,
    /// Redirect lookups that reached the table (not filtered).
    pub lookups: u64,
    /// Transactions begun.
    pub tx_begins: u64,
    /// NACK stalls.
    pub stalls: u64,
    /// Undo-log records replayed by aborts.
    pub undo_lines: u64,
    /// Redirect-pool slot allocations.
    pub pool_allocs: u64,
    /// Redirect-table entries swapped out to memory.
    pub swap_outs: u64,
}

impl Streams {
    /// Recover the streams. A table operation learns its line from the
    /// next event of the same core that names the accessed line; a
    /// lookup whose access names none (a non-transactional hit) takes
    /// the core's previous line.
    pub fn new(records: &[TraceRecord], n_cores: usize) -> Streams {
        let mut s = Streams::default();
        let mut pending: Vec<Vec<TableOp>> = vec![Vec::new(); n_cores];
        let mut last_line = vec![0u64; n_cores];
        let mut open_fill: Vec<Option<usize>> = vec![None; n_cores];
        let resolve = |s: &mut Streams, pending: &mut Vec<TableOp>, line: u64| {
            s.table.extend(pending.drain(..).map(|op| match op {
                TableOp::Lookup(c, _) => TableOp::Lookup(c, line),
                TableOp::Insert(c, _, back) => TableOp::Insert(c, line, back),
                other => other,
            }));
        };
        for r in records {
            let c = r.core;
            match r.ev {
                TraceEvent::RedirectLookup { level } => {
                    resolve(&mut s, &mut pending[c], last_line[c]);
                    open_fill[c] = None;
                    if level != RedirectLevel::Filtered {
                        pending[c].push(TableOp::Lookup(c, 0));
                        s.lookups += 1;
                    }
                }
                TraceEvent::PoolAlloc { .. } => {
                    pending[c].push(TableOp::Insert(c, 0, false));
                    s.pool_allocs += 1;
                }
                TraceEvent::RedirectBack => pending[c].push(TableOp::Insert(c, 0, true)),
                TraceEvent::TableSwapOut { .. } => s.swap_outs += 1,
                TraceEvent::L1Miss { line } => {
                    resolve(&mut s, &mut pending[c], line);
                    last_line[c] = line;
                    open_fill[c] = Some(s.fills.len());
                    s.fills.push(Fill { t: r.t, core: c, line, kind: AccessKind::Load });
                }
                TraceEvent::TxRead { line } | TraceEvent::TxWrite { line } => {
                    resolve(&mut s, &mut pending[c], line);
                    last_line[c] = line;
                    if let Some(i) = open_fill[c].take() {
                        if matches!(r.ev, TraceEvent::TxWrite { .. }) {
                            s.fills[i].kind = AccessKind::Store;
                        }
                    }
                    s.accesses.push((c, line));
                }
                TraceEvent::Stall { line, .. }
                | TraceEvent::L2Miss { line }
                | TraceEvent::OverflowAbort { line } => {
                    resolve(&mut s, &mut pending[c], line);
                    last_line[c] = line;
                    s.stalls += u64::from(matches!(r.ev, TraceEvent::Stall { .. }));
                }
                TraceEvent::TxBegin { .. } => s.tx_begins += 1,
                TraceEvent::UndoWalk { entries } => s.undo_lines += entries,
                TraceEvent::TxCommit { .. } | TraceEvent::TxAbort { .. } => {
                    resolve(&mut s, &mut pending[c], last_line[c]);
                    open_fill[c] = None;
                    s.table.push(if matches!(r.ev, TraceEvent::TxCommit { .. }) {
                        TableOp::Commit(c)
                    } else {
                        TableOp::Abort(c)
                    });
                }
                _ => {}
            }
        }
        for (c, p) in pending.iter_mut().enumerate() {
            resolve(&mut s, p, last_line[c]);
        }
        s
    }

    /// Fills in the stream.
    pub fn fills(&self) -> u64 {
        self.fills.len() as u64
    }

    /// Transactional accesses in the stream.
    pub fn accesses(&self) -> u64 {
        self.accesses.len() as u64
    }
}

/// Host cost per operation of one replayed layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerOp {
    /// Operations replayed.
    pub ops: u64,
    /// Host time attributed to them.
    pub time: Duration,
}

impl PerOp {
    /// Nanoseconds per operation (0 when nothing was replayed).
    pub fn ns(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.time.as_secs_f64() * 1e9 / self.ops as f64
        }
    }
}

/// Mirror the run's table operations on a fresh `RedirectTable`,
/// returning the elapsed time and the transient kind chosen for every
/// executed insert. With `plan`, lookups are skipped and inserts follow
/// the plan: lookups change only the tag arrays' LRU state, never the
/// entry map, so both passes see the same entries.
fn table_pass(
    ops: &[TableOp],
    cfg: &MachineConfig,
    plan: Option<&[bool]>,
) -> (Duration, Vec<bool>) {
    let mut table = RedirectTable::new(cfg.n_cores, &cfg.suv);
    let mut summary = SummarySignature::new(cfg.suv.summary_bits, cfg.suv.summary_hashes);
    let mut pool = PoolAllocator::new(Region::pool());
    let mut last: Vec<(u64, Option<LookupHit>)> = vec![(0, None); cfg.n_cores];
    let mut chosen = Vec::new();
    let start = Instant::now();
    for op in ops {
        match *op {
            TableOp::Lookup(c, line) => {
                if plan.is_none() {
                    last[c] = (line, black_box(table.lookup(c, line)).0);
                }
            }
            TableOp::Insert(c, line, back) => {
                if table.tx_touched(c, line) {
                    continue;
                }
                // Redirect back only where the mirror has a committed
                // entry no other core is deleting, as the scheme does.
                let delete = match plan {
                    Some(p) => p[chosen.len()],
                    None => {
                        back && matches!(last[c], (l, Some(h))
                            if l == line && h.committed.is_some() && !h.foreign_delete)
                    }
                };
                chosen.push(delete);
                let t = if delete {
                    Transient::DeleteGlobal
                } else {
                    Transient::New { slot: pool.alloc_slot().0 }
                };
                table.insert_transient(c, line, t);
            }
            TableOp::Commit(c) => {
                table.commit(c, &mut summary, &mut pool);
            }
            TableOp::Abort(c) => {
                table.abort(c, &mut pool);
            }
        }
    }
    (start.elapsed(), chosen)
}

/// `RedirectTable::lookup` cost: the mirrored table stream timed with
/// and without its lookups.
pub fn lookups(s: &Streams, cfg: &MachineConfig) -> PerOp {
    if s.lookups == 0 {
        return PerOp::default();
    }
    let (full, plan) = table_pass(&s.table, cfg, None);
    let (rest, _) = table_pass(&s.table, cfg, Some(&plan));
    PerOp { ops: s.lookups, time: full.saturating_sub(rest) }
}

/// `MemorySystem::fill` cost over the run's fills, plus the mesh
/// messages each fill routes.
pub fn fills(s: &Streams, cfg: &MachineConfig) -> (PerOp, f64) {
    let mut sys = MemorySystem::new(cfg);
    let start = Instant::now();
    for f in &s.fills {
        black_box(sys.fill(f.t, f.core, f.line, f.kind));
    }
    let time = start.elapsed();
    let routes = sys.mesh_mut().messages() as f64 / s.fills.len().max(1) as f64;
    (PerOp { ops: sys.stats().l1_misses, time }, routes)
}

/// `Mesh::core_to_bank` cost over the run's fill requests.
pub fn routes(s: &Streams, cfg: &MachineConfig) -> PerOp {
    let mut mesh = Mesh::new(cfg);
    let start = Instant::now();
    for f in &s.fills {
        black_box(mesh.core_to_bank(f.t, f.core, f.line));
    }
    PerOp { ops: s.fills(), time: start.elapsed() }
}

/// `TagArray::hit_load` cost over the run's transactional accesses, on
/// per-core L1 tag arrays (a miss installs the line).
pub fn tags(s: &Streams, cfg: &MachineConfig) -> PerOp {
    let mut l1: Vec<TagArray<()>> = (0..cfg.n_cores).map(|_| TagArray::new(&cfg.l1)).collect();
    let start = Instant::now();
    for &(c, line) in &s.accesses {
        if black_box(l1[c].hit_load(line)).is_none() {
            l1[c].insert(line, false);
        }
    }
    PerOp { ops: s.accesses(), time: start.elapsed() }
}

/// `Tracer::emit` cost over the retained records, and the hash the
/// re-emitted stream produces.
pub fn emits(records: &[TraceRecord]) -> (PerOp, u64) {
    let mut tracer = Tracer::ring(records.len().max(1));
    let start = Instant::now();
    for r in records {
        tracer.emit(r.t, r.core, r.ev);
    }
    let time = start.elapsed();
    (PerOp { ops: records.len() as u64, time }, tracer.hash())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{run_cell, Cell, Variant, FULL_CHECK_RING};

    fn tiny(app: &'static str, scheme: SchemeKind) -> Cell {
        Cell {
            app,
            mix: None,
            scheme,
            cores: 4,
            scale: SuiteScale::Tiny,
            check: CheckLevel::Off,
            ring: None,
            seed: 7,
        }
    }

    /// The replay streams reproduce the run's own counters and hash.
    #[test]
    fn replays_reproduce_the_runs_counters_and_hash() {
        for scheme in [SchemeKind::SuvTm, SchemeKind::DynTmSuv] {
            let cell = tiny("intruder", scheme);
            let v = Variant { check: CheckLevel::Off, ring: Some(FULL_CHECK_RING), verify: false };
            let run = run_cell(&cell, v, None).expect("tiny cell runs");
            let out = run.result.trace.as_ref().expect("traced");
            assert_eq!(out.dropped, 0, "stream fully retained");
            let stats = &run.result.stats;
            let s = Streams::new(&out.records, cell.cores);
            assert!(s.lookups > 0, "{scheme:?} looked nothing up");
            assert_eq!(s.lookups, stats.redirect.l1_lookups, "{scheme:?} lookups");
            assert_eq!(s.fills(), stats.l1_misses, "{scheme:?} fills");
            let cfg = cell.config(v);
            assert_eq!(lookups(&s, &cfg).ops, stats.redirect.l1_lookups);
            assert_eq!(fills(&s, &cfg).0.ops, stats.l1_misses, "fresh system counts each fill");
            let (emitted, hash) = emits(&out.records);
            assert_eq!(emitted.ops, out.events);
            assert_eq!(hash, run.result.trace_hash, "{scheme:?} re-emitted hash");
        }
    }

    /// A scheme without a redirect table yields no lookups to replay.
    #[test]
    fn logtm_stream_has_no_lookups() {
        let cell = tiny("intruder", SchemeKind::LogTmSe);
        let v = Variant { check: CheckLevel::Off, ring: Some(FULL_CHECK_RING), verify: false };
        let run = run_cell(&cell, v, None).expect("tiny cell runs");
        let out = run.result.trace.as_ref().expect("traced");
        let s = Streams::new(&out.records, cell.cores);
        assert_eq!(s.lookups, 0);
        assert_eq!(lookups(&s, &cell.config(v)).ops, 0);
    }
}
