//! The traced pass: per-layer metrics for one workload.
//!
//! Each cell runs once as its workload runs it, under a `WallProbe`
//! (scheduler dispatch vs. machine poll time), plus the twins that
//! isolate one layer each:
//!
//! * a replay source: traced into a ring large enough to keep every
//!   event, checks off, `verify` skipped so the counters cover the timed
//!   region only; its records feed the single-layer replays;
//! * for workloads that trace, an untraced twin: tracing overhead is the
//!   traced timed region minus the untraced one;
//! * for checked workloads, the replay source doubles as the unchecked
//!   twin: in-line audit cost is the checked timed region minus it.
//!
//! Every twin runs under its own probe so their host times compare like
//! for like. None of these runs feed the end-to-end metrics.

use crate::cells::{run_cell, run_oracles, Cell, CellRun, Kind, Variant, FULL_CHECK_RING};
use crate::replay::{self, PerOp, Streams};
use crate::report::Outcome;
use crate::spans::Spans;
use std::time::Duration;
use suv::prelude::*;
use suv_bench::probe::wall_probe;

/// Per-layer totals over a workload's cells. Times are in ms.
#[derive(Debug, Default)]
struct Totals {
    cell_ms: f64,
    dispatch_ms: f64,
    poll_ms: f64,
    setup_ms: f64,
    verify_ms: f64,
    handoffs_taken: u64,
    handoffs_elided: u64,
    tx_begins: u64,
    commits: u64,
    aborts: u64,
    nacks: u64,
    stalls: u64,
    undo_lines: u64,
    lookups_l1: u64,
    lookups_l2: u64,
    lookups_memory: u64,
    pool_allocs: u64,
    redirect_backs: u64,
    swap_outs: u64,
    lookup: PerOp,
    core_self_ms: f64,
    filtered: u64,
    false_positives: u64,
    l1_misses: u64,
    l2_misses: u64,
    spec_evictions: u64,
    tag: PerOp,
    cache_self_ms: f64,
    fill: PerOp,
    coherence_self_ms: f64,
    route: PerOp,
    noc_self_ms: f64,
    trace_events: u64,
    trace_overhead_ms: f64,
    emit: PerOp,
    audit_ms: f64,
    oracle_ms: f64,
    mesi_ms: f64,
    tx_audited: u64,
    conflict_edges: u64,
}

fn add(a: &mut PerOp, b: PerOp) {
    a.ops += b.ops;
    a.time += b.time;
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One profiled run: the run plus its probe's (dispatch, poll) times.
fn profiled(cell: &Cell, v: Variant) -> Result<(CellRun, f64, f64), String> {
    let (probe, handle) = wall_probe();
    let run = run_cell(cell, v, Some(handle))?;
    Ok((run, probe.sched_wait_ms(), probe.machine_ms()))
}

fn same(what: &str, a: &CellRun, b: &CellRun, hash: bool) -> Result<(), String> {
    let (pa, mut pb) = (a.payload(), b.payload());
    if !hash {
        pb.hash = pa.hash;
    }
    if pa == pb {
        Ok(())
    } else {
        Err(format!("{what} disagree: {pa:?} vs {pb:?}"))
    }
}

/// One cell's contribution to the totals; `core_self_ms` is also
/// returned for the placement check.
fn measure(cell: &Cell, spans: &mut Spans, parent: usize, t: &mut Totals) -> Result<f64, String> {
    let label = cell.label();
    let span_run = |spans: &mut Spans, name: &str, run: &CellRun| {
        let id = spans.record(name, Some(parent), run.call);
        spans.record("setup", Some(id), run.setup);
        if let Some(v) = run.verify {
            spans.record("verify", Some(id), v);
        }
    };

    let (main, dispatch_ms, poll_ms) = profiled(cell, cell.as_configured())?;
    span_run(spans, "run as-configured", &main);
    let oracles = if cell.check == CheckLevel::Full {
        let o = run_oracles(&main.result)?;
        spans.record("oracle serializability", Some(parent), o.serial);
        spans.record("oracle mesi", Some(parent), o.mesi);
        Some(o)
    } else {
        None
    };

    let src_v = Variant { check: CheckLevel::Off, ring: Some(FULL_CHECK_RING), verify: false };
    let (src, _, _) = profiled(cell, src_v)?;
    span_run(spans, "run replay-source", &src);
    same("replay source and as-configured run", &main, &src, main.result.trace.is_some())?;

    let mut traced_timed = Duration::ZERO;
    let mut untraced_timed = Duration::ZERO;
    if cell.ring.is_some() {
        let plain_v = Variant { check: CheckLevel::Off, ring: None, verify: true };
        let (plain, _, _) = profiled(cell, plain_v)?;
        span_run(spans, "run untraced-twin", &plain);
        same("traced and untraced twins", &src, &plain, false)?;
        traced_timed = if cell.check == CheckLevel::Off { main.timed() } else { src.timed() };
        untraced_timed = plain.timed();
    }

    let out = src.result.trace.as_ref().expect("replay source is traced");
    if out.dropped != 0 {
        return Err(format!("replay source dropped {} events", out.dropped));
    }
    let stats = &src.result.stats;
    let streams =
        spans.time("replay.streams", Some(parent), || Streams::new(&out.records, cell.cores));
    if streams.lookups != stats.redirect.l1_lookups {
        return Err(format!(
            "stream holds {} lookups, RedirectStats counted {}",
            streams.lookups, stats.redirect.l1_lookups
        ));
    }
    // Every fill of the redirect schemes is traced. The baselines' version
    // managers also fill undo-log and write-back lines without an
    // `L1Miss` event, so there the stream may only fall short.
    let untraced_fills = stats.l1_misses.checked_sub(streams.fills());
    if untraced_fills.is_none() || (cell.redirects() && untraced_fills != Some(0)) {
        return Err(format!(
            "stream holds {} fills, MemStats counted {}",
            streams.fills(),
            stats.l1_misses
        ));
    }
    let cfg = cell.config(src_v);
    let lookup = spans.time("replay.core", Some(parent), || replay::lookups(&streams, &cfg));
    let (fill, routes_per_fill) =
        spans.time("replay.coherence", Some(parent), || replay::fills(&streams, &cfg));
    let route = spans.time("replay.noc", Some(parent), || replay::routes(&streams, &cfg));
    let tag = spans.time("replay.cache", Some(parent), || replay::tags(&streams, &cfg));
    let (emit, hash) = spans.time("replay.trace", Some(parent), || replay::emits(&out.records));
    if hash != src.result.trace_hash {
        return Err(format!(
            "re-emitted stream hashes to {hash:016x}, run had {:016x}",
            src.result.trace_hash
        ));
    }

    // Counts come from the replay source: its payload matches the
    // as-configured run's, and its counters exclude `verify`'s reads.
    let r = &stats.redirect;
    let core_self_ms = r.l1_lookups as f64 * lookup.ns() / 1e6;
    let noc_self_ms = stats.l1_misses as f64 * routes_per_fill * route.ns() / 1e6;
    let cell_ms = ms(main.wall()) + oracles.as_ref().map_or(0.0, |o| ms(o.time()));
    let metrics = &out.metrics;

    t.cell_ms += cell_ms;
    t.dispatch_ms += dispatch_ms;
    t.poll_ms += poll_ms;
    t.setup_ms += ms(main.setup_time());
    t.verify_ms += ms(main.verify_time());
    t.handoffs_taken += metrics.counter("sched.handoffs_taken");
    t.handoffs_elided += metrics.counter("sched.handoffs_elided");
    t.tx_begins += streams.tx_begins;
    t.commits += stats.tx.commits;
    t.aborts += stats.tx.aborts;
    t.nacks += stats.tx.nacks_received;
    t.stalls += streams.stalls;
    t.undo_lines += streams.undo_lines;
    t.lookups_l1 += r.l1_lookups - r.l1_misses;
    t.lookups_l2 += r.l1_misses - r.mem_lookups;
    t.lookups_memory += r.mem_lookups;
    t.pool_allocs += streams.pool_allocs;
    t.redirect_backs += r.entries_redirected_back;
    t.swap_outs += streams.swap_outs;
    add(&mut t.lookup, lookup);
    t.core_self_ms += core_self_ms;
    t.filtered += r.summary_filtered;
    t.false_positives += r.summary_false_positives;
    t.l1_misses += stats.l1_misses;
    t.l2_misses += stats.l2_misses;
    t.spec_evictions += stats.overflow.speculative_evictions;
    add(&mut t.tag, tag);
    t.cache_self_ms += streams.accesses() as f64 * tag.ns() / 1e6;
    add(&mut t.fill, fill);
    t.coherence_self_ms += (stats.l1_misses as f64 * fill.ns() / 1e6 - noc_self_ms).max(0.0);
    add(&mut t.route, route);
    t.noc_self_ms += noc_self_ms;
    t.trace_events += main.result.trace.as_ref().map_or(0, |o| o.events);
    t.trace_overhead_ms += ms(traced_timed.saturating_sub(untraced_timed));
    add(&mut t.emit, emit);
    if let Some(o) = &oracles {
        t.audit_ms += ms(main.timed().saturating_sub(src.timed()));
        t.oracle_ms += ms(o.serial.1 - o.serial.0);
        t.mesi_ms += ms(o.mesi.1 - o.mesi.0);
        t.tx_audited += o.committed + o.aborted;
        t.conflict_edges += o.edges;
    }

    println!(
        "  {label:<28} {:>9.1} ms  poll {:>8.1}  lookups {:>8} x {:>6.1} ns = core {:>7.1} ms  \
         fills {:>7} ({} untraced)  events {:>8}",
        cell_ms,
        poll_ms,
        r.l1_lookups,
        lookup.ns(),
        core_self_ms,
        stats.l1_misses,
        untraced_fills.unwrap_or_default(),
        out.events,
    );
    Ok(core_self_ms)
}

/// Run the traced pass over a workload; writes its spans to `spans_path`.
pub fn traced_pass(kind: Kind, seed: u64, spans_path: &std::path::Path) -> Outcome {
    let cells = kind.cells(seed);
    let mut spans = Spans::new();
    let root = spans.open(format!("workload {}", kind.name()), None);
    let mut t = Totals::default();
    let mut out = Outcome::default();
    let mut read_mix_core_ms = Vec::new();
    println!("{} traced pass, {} cells:", kind.name(), cells.len());
    for cell in &cells {
        out.attempted += 1;
        let id = spans.open(format!("cell {}", cell.label()), Some(root));
        match measure(cell, &mut spans, id, &mut t) {
            Ok(core_ms) => {
                if cell.mix.is_some_and(|(m, _)| m == "read") {
                    read_mix_core_ms.push((cell.scheme, core_ms));
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("FAILED {}: {e}", cell.label());
            }
        }
        spans.close(id);
    }
    spans.close(root);

    let explained = t.core_self_ms + t.cache_self_ms + t.coherence_self_ms + t.noc_self_ms;
    let check_ms = t.audit_ms + t.oracle_ms + t.mesi_ms;
    let check_share = ratio(check_ms, t.cell_ms);
    let c = |x: u64| x as f64;
    out.push("sim.dispatch_ms", t.dispatch_ms, "ms");
    out.push("sim.handoffs_taken", c(t.handoffs_taken), "count");
    out.push("sim.handoffs_elided", c(t.handoffs_elided), "count");
    out.push("sim.ns_per_handoff", ratio(t.dispatch_ms * 1e6, c(t.handoffs_taken)), "ns");
    out.push("htm.poll_ms", t.poll_ms, "ms");
    out.push("htm.tx_begins", c(t.tx_begins), "count");
    out.push("htm.commits", c(t.commits), "count");
    out.push("htm.aborts", c(t.aborts), "count");
    out.push("htm.commit_ratio", ratio(c(t.commits), c(t.tx_begins)), "ratio");
    out.push("htm.nacks", c(t.nacks), "count");
    out.push("htm.stalls", c(t.stalls), "count");
    out.push("htm.undo_lines", c(t.undo_lines), "count");
    out.push("core.lookups.l1", c(t.lookups_l1), "count");
    out.push("core.lookups.l2", c(t.lookups_l2), "count");
    out.push("core.lookups.memory", c(t.lookups_memory), "count");
    out.push("core.pool_allocs", c(t.pool_allocs), "count");
    out.push("core.redirect_backs", c(t.redirect_backs), "count");
    out.push("core.swap_outs", c(t.swap_outs), "count");
    out.push("core.lookup_ns", t.lookup.ns(), "ns");
    out.push("core.self_ms", t.core_self_ms, "ms");
    out.push("sig.filtered", c(t.filtered), "count");
    out.push("sig.false_positives", c(t.false_positives), "count");
    out.push(
        "sig.filter_rate",
        ratio(c(t.filtered), c(t.filtered + t.lookups_l1 + t.lookups_l2 + t.lookups_memory)),
        "ratio",
    );
    out.push("cache.l1_misses", c(t.l1_misses), "count");
    out.push("cache.l2_misses", c(t.l2_misses), "count");
    out.push("cache.spec_evictions", c(t.spec_evictions), "count");
    out.push("cache.tag_ns", t.tag.ns(), "ns");
    out.push("cache.self_ms", t.cache_self_ms, "ms");
    out.push("coherence.fills", c(t.fill.ops), "count");
    out.push("coherence.fill_ns", t.fill.ns(), "ns");
    out.push("coherence.self_ms", t.coherence_self_ms, "ms");
    out.push("noc.route_ns", t.route.ns(), "ns");
    out.push("noc.self_ms", t.noc_self_ms, "ms");
    out.push("trace.events", c(t.trace_events), "count");
    out.push("trace.overhead_ms", t.trace_overhead_ms, "ms");
    out.push("trace.emit_ns", t.emit.ns(), "ns");
    out.push("trace.share", ratio(t.trace_overhead_ms, t.cell_ms), "ratio");
    out.push("check.audit_ms", t.audit_ms, "ms");
    out.push("check.oracle_ms", t.oracle_ms, "ms");
    out.push("check.mesi_ms", t.mesi_ms, "ms");
    out.push("check.tx_audited", c(t.tx_audited), "count");
    out.push("check.conflict_edges", c(t.conflict_edges), "count");
    out.push("check.share", check_share, "ratio");
    out.push("workload.setup_ms", t.setup_ms, "ms");
    out.push("workload.verify_ms", t.verify_ms, "ms");
    out.push("model.residual_ms", t.poll_ms - explained, "ms");
    out.push("model.explained_share", ratio(explained, t.poll_ms), "ratio");

    println!("predicted layer placement:");
    let verdict = |ok: bool| if ok { "holds" } else { "DOES NOT HOLD" };
    match kind {
        Kind::StampFig => println!(
            "  trace.overhead_ms = {} and check.share = {} on stamp-fig: {}",
            t.trace_overhead_ms,
            check_share,
            verdict(t.trace_overhead_ms == 0.0 && check_share == 0.0)
        ),
        Kind::StampChecked => {
            println!("  check.share = {check_share:.3} >= 0.9: {}", verdict(check_share >= 0.9));
        }
        Kind::OltpJson => {
            let of = |s| read_mix_core_ms.iter().find(|(k, _)| *k == s).map_or(0.0, |(_, v)| *v);
            let (suv, logtm) = (of(SchemeKind::DynTmSuv), of(SchemeKind::LogTmSe));
            println!(
                "  read mix core.self_ms DynTM+SUV {suv:.1} > LogTM-SE {logtm:.1}: {}",
                verdict(suv > logtm)
            );
        }
    }
    println!("  core.lookups.* = 0 on every LogTM-SE cell: checked per cell");

    println!("span self time by kind:");
    for (k, v) in spans.self_ms() {
        println!("  {k:<12} {v:>10.1} ms");
    }
    match spans.write(spans_path) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), spans_path.display()),
        Err(e) => {
            eprintln!("cannot write spans to {}: {e}", spans_path.display());
            out.failed += 1;
        }
    }
    out
}
