//! The three workloads as fixed cell lists, and the one way a cell runs.
//!
//! A cell is one simulation: an application (or OLTP traffic mix), a
//! scheme, a core count, a check level and an event-tracing setting. The
//! benchmark runs every cell through the simulator's public entry point
//! `run_workload_profiled`, behind a delegating [`Workload`] wrapper that
//! times `setup` and `verify` from the outside.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use suv::oltp::{parse_traffic_spec, Oltp};
use suv::prelude::*;
use suv::sim::{run_workload_profiled, ProbeHandle};

/// OLTP traffic seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 7;

/// Read-mostly OLTP mix: hot Zipfian keys, 90% reads. At 16 cores the
/// simulated cycles of LogTM-SE and DynTM+SUV are within a few cycles of
/// each other, so their host-time gap is the redirect-lookup cost.
pub const READ_MIX: &str = "zipf=0.99,rw=90:10,reqs=4096";

/// Write-heavy OLTP mix with periodic hot-key storms: dominated by
/// aborts, NACKs, undo walks and coherence fills.
pub const STORM_MIX: &str = "zipf=0.99,rw=50:50,storm=32:16:2,reqs=1024";

/// Event-ring capacity `suvtm run --check full` uses: the offline
/// serializability oracle refuses a truncated stream.
pub const FULL_CHECK_RING: usize = 1 << 23;

/// The Fig. 6 and Fig. 9 schemes.
pub const FIG_SCHEMES: [SchemeKind; 5] = [
    SchemeKind::LogTmSe,
    SchemeKind::FasTm,
    SchemeKind::SuvTm,
    SchemeKind::DynTm,
    SchemeKind::DynTmSuv,
];

/// One of the benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 8 STAMP apps x 5 schemes x 16 cores, paper scale, no tracing or
    /// checks: the Fig. 6 / Fig. 9 regeneration.
    StampFig,
    /// The open-loop OLTP kernel as `suvtm run --json` runs it (event
    /// tracing on), two mixes x {LogTM-SE, DynTM+SUV} x 16 cores.
    OltpJson,
    /// {bayes, vacation, labyrinth} x {LogTM-SE, SUV-TM, DynTM+SUV} x 8
    /// cores, paper scale, run the way `--check full` runs them.
    StampChecked,
}

impl Kind {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Kind; 3] = [Kind::StampFig, Kind::OltpJson, Kind::StampChecked];

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::StampFig => "stamp-fig",
            Kind::OltpJson => "oltp-json",
            Kind::StampChecked => "stamp-checked",
        }
    }

    /// The workload's fixed cell list. Only the OLTP traffic depends on
    /// `seed`; the STAMP inputs are the paper's.
    pub fn cells(self, seed: u64) -> Vec<Cell> {
        let stamp = |app, scheme, cores, check, ring| Cell {
            app,
            mix: None,
            scheme,
            cores,
            scale: SuiteScale::Paper,
            check,
            ring,
            seed,
        };
        match self {
            Kind::StampFig => suv::stamp::WORKLOAD_NAMES
                .iter()
                .flat_map(|app| {
                    FIG_SCHEMES.map(|scheme| stamp(app, scheme, 16, CheckLevel::Off, None))
                })
                .collect(),
            Kind::OltpJson => [("read", READ_MIX), ("storm", STORM_MIX)]
                .into_iter()
                .flat_map(|mix| {
                    [SchemeKind::LogTmSe, SchemeKind::DynTmSuv].map(|scheme| Cell {
                        app: "oltp",
                        mix: Some(mix),
                        scheme,
                        cores: 16,
                        scale: SuiteScale::Paper,
                        check: CheckLevel::Off,
                        ring: Some(TraceConfig::default().ring_capacity),
                        seed,
                    })
                })
                .collect(),
            Kind::StampChecked => ["bayes", "vacation", "labyrinth"]
                .into_iter()
                .flat_map(|app| {
                    [SchemeKind::LogTmSe, SchemeKind::SuvTm, SchemeKind::DynTmSuv].map(|scheme| {
                        stamp(app, scheme, 8, CheckLevel::Full, Some(FULL_CHECK_RING))
                    })
                })
                .collect(),
        }
    }
}

/// One simulation of a workload's cell list.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Registry name of the application.
    pub app: &'static str,
    /// OLTP traffic `(label, spec)`; `None` for STAMP cells.
    pub mix: Option<(&'static str, &'static str)>,
    /// Version-management scheme.
    pub scheme: SchemeKind,
    /// Simulated cores.
    pub cores: usize,
    /// Input scale.
    pub scale: SuiteScale,
    /// Runtime check level.
    pub check: CheckLevel,
    /// Event-ring capacity when the workload traces, else `None`.
    pub ring: Option<usize>,
    /// OLTP traffic seed.
    pub seed: u64,
}

/// How one run of a cell is configured: the cell as its workload runs it
/// ([`Cell::as_configured`]) or a twin that differs in one knob.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Runtime check level (in-line audits, shadow oracle).
    pub check: CheckLevel,
    /// Event tracing ring capacity, `None` = tracing off.
    pub ring: Option<usize>,
    /// Run the workload's functional `verify` after the timed region.
    pub verify: bool,
}

impl Cell {
    /// `app/scheme/cores`, with the OLTP mix in place of the app.
    pub fn label(&self) -> String {
        let app = match self.mix {
            Some((mix, _)) => format!("{}-{mix}", self.app),
            None => self.app.to_string(),
        };
        format!("{app}/{}/{}", self.scheme.name(), self.cores)
    }

    /// The run its workload makes.
    pub fn as_configured(&self) -> Variant {
        Variant { check: self.check, ring: self.ring, verify: true }
    }

    /// Whether this scheme has a redirect table at all.
    pub fn redirects(&self) -> bool {
        matches!(self.scheme, SchemeKind::SuvTm | SchemeKind::DynTmSuv)
    }

    /// The simulated machine for a variant.
    pub fn config(&self, v: Variant) -> MachineConfig {
        MachineConfig { n_cores: self.cores, check: v.check, ..Default::default() }
    }

    fn workload(&self) -> Box<dyn Workload> {
        match self.mix {
            Some((_, spec)) => {
                let traffic = parse_traffic_spec(&format!("{spec},seed={}", self.seed))
                    .expect("built-in traffic spec parses");
                Box::new(Oltp::with_traffic(self.scale, traffic))
            }
            None => by_name(self.app, self.scale).expect("built-in STAMP app"),
        }
    }
}

/// What must repeat exactly across reps and twins of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Payload {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions.
    pub aborts: u64,
    /// Event-stream hash (0 when untraced).
    pub hash: u64,
}

/// A delegating workload that times `setup` and `verify` from outside,
/// and can skip `verify` (a replay source must carry the timed region's
/// counters only: `verify` reads memory through the redirect table).
struct Timed<'w> {
    inner: &'w mut dyn Workload,
    verify: bool,
    setup: Option<(Instant, Instant)>,
    verified: OnceLock<(Instant, Instant)>,
}

impl Workload for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn setup(&mut self, ctx: &mut SetupCtx<'_>) {
        let start = Instant::now();
        self.inner.setup(ctx);
        self.setup = Some((start, Instant::now()));
    }

    fn run<'a>(&'a self, tid: usize, ctx: &'a mut ThreadCtx) -> CoreFuture<'a> {
        self.inner.run(tid, ctx)
    }

    fn verify(&self, ctx: &mut SetupCtx<'_>) {
        if self.verify {
            let start = Instant::now();
            self.inner.verify(ctx);
            let _ = self.verified.set((start, Instant::now()));
        }
    }
}

/// One finished run of a cell, with the host instants around its parts.
pub struct CellRun {
    /// The simulator's result.
    pub result: RunResult,
    /// Around the whole `run_workload_profiled` call.
    pub call: (Instant, Instant),
    /// Around `Workload::setup`.
    pub setup: (Instant, Instant),
    /// Around `Workload::verify`, when it ran.
    pub verify: Option<(Instant, Instant)>,
}

fn span(s: (Instant, Instant)) -> Duration {
    s.1 - s.0
}

impl CellRun {
    /// Host time of the whole call.
    pub fn wall(&self) -> Duration {
        span(self.call)
    }

    /// Host time in `setup`.
    pub fn setup_time(&self) -> Duration {
        span(self.setup)
    }

    /// Host time in `verify`.
    pub fn verify_time(&self) -> Duration {
        self.verify.map_or(Duration::ZERO, span)
    }

    /// Host time of the simulated (timed) region: the call minus setup
    /// and verify.
    pub fn timed(&self) -> Duration {
        self.wall().saturating_sub(self.setup_time() + self.verify_time())
    }

    /// The repeatable part of the result.
    pub fn payload(&self) -> Payload {
        let s = &self.result.stats;
        Payload {
            cycles: s.cycles,
            commits: s.tx.commits,
            aborts: s.tx.aborts,
            hash: self.result.trace_hash,
        }
    }
}

/// Render a caught panic payload.
pub fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Run one variant of a cell. A panic anywhere in the run (a failed
/// `verify`, a machine invariant) comes back as `Err`, so one bad cell
/// never hides the others.
pub fn run_cell(cell: &Cell, v: Variant, probe: Option<ProbeHandle>) -> Result<CellRun, String> {
    let cfg = cell.config(v);
    let trace = v.ring.map(|ring_capacity| TraceConfig { ring_capacity });
    let mut w = cell.workload();
    let mut timed =
        Timed { inner: w.as_mut(), verify: v.verify, setup: None, verified: OnceLock::new() };
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_workload_profiled(&cfg, cell.scheme, &mut timed, trace, probe)
    }));
    let end = Instant::now();
    let result = result.map_err(|p| format!("run panicked: {}", panic_message(p.as_ref())))?;
    let lookups = result.stats.redirect.l1_lookups;
    if !cell.redirects() && lookups != 0 {
        return Err(format!("{} made {lookups} redirect lookups", cell.scheme.name()));
    }
    Ok(CellRun {
        result,
        call: (start, end),
        setup: timed.setup.expect("setup ran"),
        verify: timed.verified.get().copied(),
    })
}

/// The offline oracles `--check full` runs after a traced run.
pub struct Oracles {
    /// Around `check_trace`.
    pub serial: (Instant, Instant),
    /// Around `check_mesi_reachability`.
    pub mesi: (Instant, Instant),
    /// Committed transactions the serializability oracle audited.
    pub committed: u64,
    /// Aborted transactions it saw.
    pub aborted: u64,
    /// Conflict edges in its serialization graph.
    pub edges: u64,
}

impl Oracles {
    /// Host time of both oracle calls.
    pub fn time(&self) -> Duration {
        span(self.serial) + span(self.mesi)
    }
}

/// Run the serializability and MESI-reachability oracles; `Err` unless
/// both verdicts are ok.
pub fn run_oracles(r: &RunResult) -> Result<Oracles, String> {
    let out = r.trace.as_ref().ok_or("oracles need a traced run")?;
    let t0 = Instant::now();
    let s = catch_unwind(AssertUnwindSafe(|| suv_check::check_trace(out)))
        .map_err(|p| format!("check_trace panicked: {}", panic_message(p.as_ref())))?;
    let t1 = Instant::now();
    let m = catch_unwind(suv_check::check_mesi_reachability)
        .map_err(|p| format!("check_mesi_reachability panicked: {}", panic_message(p.as_ref())))?;
    let t2 = Instant::now();
    if !s.ok() {
        return Err(format!("serializability oracle: {:?}", s.violations()));
    }
    if !m.ok() {
        return Err(format!("MESI reachability oracle: {:?}", m.violations));
    }
    Ok(Oracles {
        serial: (t0, t1),
        mesi: (t1, t2),
        committed: s.committed as u64,
        aborted: s.aborted as u64,
        edges: s.edges as u64,
    })
}
