//! The transactional memory controller.
//!
//! [`HtmMachine`] is the single point through which simulated threads touch
//! memory. It owns the functional memory, the timing model, the per-core
//! transaction descriptors and the pluggable version manager, and
//! implements the pieces every compared scheme shares:
//!
//! * **Eager conflict detection** — an access that needs a coherence
//!   request is checked against every other core's read/write signature
//!   (LogTM-SE's conservative summary behaviour); a hit produces a NACK.
//! * **Stall policy with possible-cycle deadlock avoidance** — NACKed
//!   requesters retry; a transaction that has NACKed an older transaction
//!   sets its `possible_cycle` flag and aborts itself if it is then NACKed
//!   by an older transaction (the LogTM rule).
//! * **Isolation windows** — a transaction keeps defending its sets while
//!   `Aborting` or `Committing`; how long those windows last is exactly
//!   what distinguishes the version managers.
//! * **Lazy mode (DynTM)** — lazy transactions skip eager checks; commit
//!   arbitrates on a chip-wide token, validates against every live
//!   signature, dooms conflicting lazy transactions, and loses to eager
//!   owners.
//! * **Strong isolation** — non-transactional accesses run the same
//!   resolution and conflict checks.

use crate::shadow::ShadowOracle;
use crate::swvm::{self, SwVm};
use crate::tx::{TxState, TxStatus};
use crate::vm::{LoadTarget, StoreTarget, VersionManager, VmEnv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use suv_coherence::{AccessKind, MemorySystem};
use suv_mem::Memory;
use suv_trace::{TraceEvent, Tracer};
use suv_types::{
    line_of, word_of, Addr, CheckLevel, CoreId, Cycle, LineAddr, MachineConfig, OverflowStats,
    TxSite, TxStats,
};

/// Outcome of a memory access through the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The access completed.
    Done {
        /// Loaded value (0 for stores).
        value: u64,
        /// Cycles consumed.
        latency: Cycle,
    },
    /// The access was NACKed by `nacker`'s transaction; the requester
    /// should stall and retry, or abort when `must_abort` is set
    /// (possible-cycle rule).
    Nacked { nacker: CoreId, latency: Cycle, must_abort: bool },
    /// The core's transaction was doomed by a lazy committer and must
    /// abort before doing anything else.
    MustAbort { latency: Cycle },
    /// The version manager ran out of capacity for this store (redirect
    /// pool dry, undo log full, write buffer full). The transaction must
    /// abort; the sim layer's escalation ladder decides how to retry.
    Overflow { latency: Cycle },
}

/// Outcome of a commit request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Committed. `committing` is the portion of `latency` attributable to
    /// lazy arbitration + merge (the Figure 9 "Committing" component).
    Committed { latency: Cycle, committing: Cycle },
    /// Commit-time validation failed (or the transaction was doomed); the
    /// caller must abort.
    MustAbort { latency: Cycle },
}

/// Outcome of a software-fallback commit request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwCommitOutcome {
    /// Committed; the write lines stay software-locked for `latency`.
    Committed { latency: Cycle },
    /// Another software commit's lock window covers a line this
    /// transaction touched. The window closes unconditionally, so the
    /// caller stalls `latency` and retries the commit — never aborts.
    Busy { nacker: CoreId, latency: Cycle },
    /// The commit lost (reason codes mirror
    /// [`TraceEvent::FallbackAbort`]): 0 = value validation failed,
    /// 2 = a live hardware transaction wins the conflict. The caller must
    /// abort via [`HtmMachine::abort_sw_tx`].
    MustAbort { reason: u32, latency: Cycle },
}

/// The HTM controller.
pub struct HtmMachine {
    cfg: MachineConfig,
    /// Functional memory (public for workload setup code).
    pub mem: Memory,
    /// Timing model (public for tests that inspect cache state).
    pub sys: MemorySystem,
    txs: Vec<TxState>,
    vm: Box<dyn VersionManager>,
    /// The STM-mode software fallback tier, alongside the hardware scheme.
    sw: SwVm,
    tx_stats: Vec<TxStats>,
    overflow: OverflowStats,
    /// Chip-wide lazy-commit token: free-at time.
    commit_token_free: Cycle,
    /// Earliest `until` of any open Aborting/Committing isolation window
    /// (`u64::MAX` when none): [`HtmMachine::settle`] is a no-op before
    /// this instant, so the per-operation settle scan is skipped on the
    /// vast majority of accesses.
    settle_due: Cycle,
    rngs: Vec<StdRng>,
    /// Per-core xorshift64 state for the capped-backoff jitter
    /// (`RobustnessConfig::max_backoff_cycles`). A separate stream so
    /// enabling the cap never perturbs the uncapped `rngs` draws.
    backoff_xs: Vec<u64>,
    /// Event/metrics sink; disabled by default (one predictable branch per
    /// emission point).
    tracer: Tracer,
    /// Shadow-memory isolation oracle (`CheckLevel::Full` only).
    shadow: Option<ShadowOracle>,
}

impl HtmMachine {
    /// Build a machine running the given version-management scheme.
    #[must_use]
    pub fn new(cfg: &MachineConfig, vm: Box<dyn VersionManager>) -> Self {
        let sw = SwVm::new(cfg.n_cores, vm.kind());
        HtmMachine {
            cfg: *cfg,
            mem: Memory::new(),
            sys: MemorySystem::new(cfg),
            txs: (0..cfg.n_cores)
                .map(|_| {
                    TxState::with_mode(
                        cfg.htm.signature_bits,
                        cfg.htm.signature_hashes,
                        cfg.htm.perfect_signatures,
                    )
                })
                .collect(),
            vm,
            sw,
            tx_stats: vec![TxStats::default(); cfg.n_cores],
            overflow: OverflowStats::default(),
            commit_token_free: 0,
            settle_due: u64::MAX,
            rngs: (0..cfg.n_cores).map(|c| StdRng::seed_from_u64(0x00BA_C0FF + c as u64)).collect(),
            backoff_xs: (0..cfg.n_cores)
                .map(|c| 0x9E37_79B9_7F4A_7C15_u64 ^ (c as u64 + 1))
                .collect(),
            tracer: Tracer::disabled(),
            shadow: (cfg.check >= CheckLevel::Full).then(|| ShadowOracle::new(cfg.n_cores)),
        }
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Install a tracer (replacing the default disabled one).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Borrow the tracer (e.g. to check [`Tracer::on`] or read metrics).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Take the tracer out for finishing, leaving a disabled one behind.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::replace(&mut self.tracer, Tracer::disabled())
    }

    /// Emit an event attributed to `core` at time `t`. Hook for callers
    /// that hold the machine lock (the sim layer's barrier accounting).
    pub fn trace_emit(&mut self, t: Cycle, core: CoreId, ev: TraceEvent) {
        self.tracer.emit(t, core, ev);
    }

    /// Is `core` currently inside a transaction?
    #[must_use]
    pub fn in_tx(&self, core: CoreId) -> bool {
        self.txs[core].depth > 0 && matches!(self.txs[core].status, TxStatus::Active)
    }

    /// Current nesting depth of `core`'s transaction.
    #[must_use]
    pub fn depth(&self, core: CoreId) -> usize {
        self.txs[core].depth
    }

    /// Close expired isolation windows. Called at the head of every
    /// operation; correctness relies on the engine dispatching operations
    /// in global time order.
    fn settle(&mut self, now: Cycle) {
        if now < self.settle_due {
            return; // no isolation window can have expired yet
        }
        let mut due = u64::MAX;
        for t in &mut self.txs {
            match t.status {
                TxStatus::Aborting { until } => {
                    if now >= until {
                        t.clear_attempt();
                    } else {
                        due = due.min(until);
                    }
                }
                TxStatus::Committing { until } => {
                    if now >= until {
                        t.clear_dynamic();
                    } else {
                        due = due.min(until);
                    }
                }
                _ => {}
            }
        }
        self.settle_due = due;
    }

    /// Find a defender that conflicts with `requester`'s access to `line`.
    /// Returns the lowest-numbered conflicting core.
    fn find_conflict(
        &self,
        now: Cycle,
        requester: CoreId,
        line: LineAddr,
        is_write: bool,
    ) -> Option<CoreId> {
        for (c, t) in self.txs.iter().enumerate() {
            if c == requester || !t.isolation_live(now) {
                continue;
            }
            // Active lazy transactions are invisible until they commit;
            // aborting/committing windows always defend.
            let defends = match t.status {
                TxStatus::Active => !t.lazy,
                TxStatus::Aborting { .. } | TxStatus::Committing { .. } => true,
                TxStatus::Idle => false,
            };
            if !defends {
                continue;
            }
            let hit =
                if is_write { t.rsig_hit(line) || t.wsig_hit(line) } else { t.wsig_hit(line) };
            if hit {
                return Some(c);
            }
        }
        None
    }

    /// A store that acquires exclusive ownership of `line` dooms every
    /// *lazy* active transaction that has the line in its read or write
    /// set: lazy transactions hold no ownership and lose against eager
    /// writers (DynTM's mixed-mode rule). Without this, a lazy transaction
    /// could commit stale reads over an eagerly-committed update.
    fn doom_lazy_conflictors(&mut self, now: Cycle, requester: CoreId, line: LineAddr) {
        for c in 0..self.txs.len() {
            if c == requester {
                continue;
            }
            let t = &self.txs[c];
            if t.lazy
                && matches!(t.status, TxStatus::Active)
                && t.isolation_live(now)
                && (t.rsig_hit(line) || t.wsig_hit(line))
            {
                self.txs[c].doomed = true;
            }
        }
    }

    /// Record a NACK and evaluate the possible-cycle rule. Returns
    /// `must_abort` for the requester.
    fn note_nack(&mut self, requester: CoreId, nacker: CoreId, requester_in_tx: bool) -> bool {
        self.tx_stats[requester].nacks_received += 1;
        self.tx_stats[nacker].nacks_sent += 1;
        if !requester_in_tx {
            return false; // non-transactional requesters just stall
        }
        if self.txs[nacker].irrevocable {
            // An irrevocable defender wins every conflict outright: the
            // requester aborts immediately instead of stalling, so the
            // irrevocable owner can never participate in a dependence
            // cycle and is guaranteed to commit.
            return true;
        }
        let req_ts = self.txs[requester].timestamp;
        let nack_ts = self.txs[nacker].timestamp;
        if req_ts < nack_ts {
            // The defender NACKed an older transaction: potential cycle.
            self.txs[nacker].possible_cycle = true;
        }
        let must_abort = nack_ts < req_ts
            && self.txs[requester].possible_cycle
            // An irrevocable requester never aborts; it stalls until the
            // defender yields (which the rule above guarantees it will).
            && !self.txs[requester].irrevocable;
        if must_abort {
            self.tx_stats[requester].cycle_aborts += 1;
        }
        must_abort
    }

    /// Trace a NACK: the NACK proper is attributed to the defender and the
    /// resulting stall to the requester, so per-core `nack` event counts
    /// reconcile with `nacks_sent` and `stall` counts with
    /// `nacks_received`.
    fn trace_nack(
        &mut self,
        now: Cycle,
        requester: CoreId,
        nacker: CoreId,
        line: LineAddr,
        stall: Cycle,
        must_abort: bool,
    ) {
        self.tracer.emit(now, nacker, TraceEvent::Nack { requester: requester as u32, must_abort });
        self.tracer.emit(now, requester, TraceEvent::Stall { line, cycles: stall });
    }

    /// NACK the access when `line` sits inside a live software commit
    /// window (the sentinel ownership a software commit publishes through
    /// the directory). Coherence permission bits know nothing about
    /// software locks, so this check runs *unconditionally* on every
    /// hardware and non-transactional path — the emptiness fast path in
    /// [`SwVm::lock_owner`] keeps it to one compare when the software tier
    /// is idle. The window closes unconditionally, so the requester only
    /// ever stalls (`must_abort` is never set; even an irrevocable owner
    /// can afford the bounded wait without risking a dependence cycle).
    fn sw_lock_nacked(
        &mut self,
        now: Cycle,
        core: CoreId,
        line: LineAddr,
        res_lat: Cycle,
    ) -> Option<Access> {
        let owner = self.sw.lock_owner(now, line, core)?;
        self.tx_stats[core].nacks_received += 1;
        self.tx_stats[owner].nacks_sent += 1;
        self.tx_stats[core].hw_sw_conflicts += 1;
        let latency = res_lat + self.sys.nack_latency(now + res_lat, core, line, owner);
        self.tracer.emit(now, core, TraceEvent::HwSwConflict { line, dir: 0 });
        self.trace_nack(now, core, owner, line, latency, false);
        Some(Access::Nacked { nacker: owner, latency, must_abort: false })
    }

    /// Begin (or nest) a transaction. Returns the begin latency.
    pub fn begin_tx(&mut self, now: Cycle, core: CoreId, site: TxSite) -> Cycle {
        self.begin_tx_mode(now, core, site, false)
    }

    /// Begin the outermost transaction in irrevocable serialized mode: the
    /// caller must already hold the chip-wide irrevocable token (the
    /// scheduler enforces single ownership; INV-11 re-checks it here).
    /// Irrevocable transactions always run eager, are made the oldest
    /// transaction in the system (so the possible-cycle rule resolves
    /// every conflict in their favour), and may bypass the version
    /// manager's capacity limits.
    pub fn begin_tx_irrevocable(&mut self, now: Cycle, core: CoreId, site: TxSite) -> Cycle {
        self.begin_tx_mode(now, core, site, true)
    }

    fn begin_tx_mode(
        &mut self,
        now: Cycle,
        core: CoreId,
        site: TxSite,
        irrevocable: bool,
    ) -> Cycle {
        self.settle(now);
        if self.txs[core].depth > 0 {
            assert!(
                self.txs[core].depth < self.cfg.htm.max_nest_depth,
                "nesting depth limit exceeded"
            );
            self.txs[core].depth += 1;
            if self.cfg.htm.partial_nesting
                && !self.txs[core].lazy
                && self.vm.supports_partial_abort()
            {
                // LogTM-Nested stacked frame: per-level signatures plus a
                // version-manager watermark, enabling partial abort.
                self.txs[core].push_frame();
                if let Some(s) = &mut self.shadow {
                    s.push_level(core);
                }
                let mut env =
                    VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now };
                return 2 + self.vm.begin_level(&mut env, core);
            }
            return 1; // flattened (subsumed) nesting
        }
        // Irrevocable mode forces eager conflict detection: the guarantee
        // rests on the NACK/possible-cycle machinery resolving conflicts
        // in the oldest transaction's favour.
        let lazy = if irrevocable { false } else { self.vm.choose_mode(core, site) };
        if irrevocable {
            if self.cfg.check >= CheckLevel::Cheap {
                if let Some(other) = (0..self.txs.len()).find(|&c| self.txs[c].irrevocable) {
                    panic!(
                        "INV-11 violated at t={now}: core {core} begins irrevocable \
                         while core {other} is irrevocable"
                    );
                }
            }
            self.vm.set_irrevocable(core, true);
        }
        let t = &mut self.txs[core];
        debug_assert_eq!(t.status, TxStatus::Idle, "core {core} beginning while busy");
        t.status = TxStatus::Active;
        t.depth = 1;
        t.site = site;
        t.lazy = lazy;
        t.doomed = false;
        t.irrevocable = irrevocable;
        t.begin_time = now;
        if irrevocable {
            // Oldest possible age: core ids are < 2^8, so this sorts below
            // every normal `(now << 8) | core` timestamp and the LogTM rule
            // makes every opponent in a dependence cycle yield.
            t.timestamp = core as u64;
        } else if t.timestamp == u64::MAX {
            // Age is assigned once per dynamic transaction and kept across
            // retries so the oldest eventually wins.
            t.timestamp = (now << 8) | core as u64;
        }
        self.tracer.emit(now, core, TraceEvent::TxBegin { site: site.0, lazy });
        if let Some(s) = &mut self.shadow {
            s.begin(core);
        }
        let mut env =
            VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now };
        self.cfg.htm.checkpoint_cycles + self.vm.begin(&mut env, core, lazy)
    }

    /// Transactional load.
    pub fn tx_load(&mut self, now: Cycle, core: CoreId, addr: Addr) -> Access {
        self.settle(now);
        debug_assert!(self.in_tx(core), "tx_load outside a transaction");
        if self.txs[core].doomed {
            return Access::MustAbort { latency: 1 };
        }
        let line = line_of(addr);
        if let Some(a) = self.sw_lock_nacked(now, core, line, 0) {
            return a;
        }
        let mut env =
            VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now };
        let (target, res_lat) = self.vm.resolve_load(&mut env, core, addr, true);
        let (value, latency) = match target {
            LoadTarget::Value(v) => (v, res_lat + self.cfg.l1.latency),
            LoadTarget::Mem(phys) => {
                // Coherence and caching always key on the ORIGINAL address
                // (SUV's "a load/(store) that misses on block B generates a
                // GETS(B)/(GETM(B))"); only the functional data location is
                // redirected.
                if !self.sys.has_permission(core, addr, AccessKind::Load) {
                    if let Some(nacker) = self.find_conflict(now, core, line, false) {
                        let must_abort = self.note_nack(core, nacker, true);
                        let latency =
                            res_lat + self.sys.nack_latency(now + res_lat, core, line, nacker);
                        self.trace_nack(now, core, nacker, line, latency, must_abort);
                        return Access::Nacked { nacker, latency, must_abort };
                    }
                    let f = self.sys.fill_traced(
                        now + res_lat,
                        core,
                        addr,
                        AccessKind::Load,
                        &mut self.tracer,
                    );
                    if let Some(ev) = f.evicted {
                        self.vm.on_eviction(core, &ev);
                        if ev.speculative {
                            self.txs[core].overflowed_l1 = true;
                            self.overflow.speculative_evictions += 1;
                            self.tracer.emit(now, core, TraceEvent::SpecEviction { line: ev.line });
                        }
                    }
                    (self.mem.read_word(word_of(phys)), res_lat + f.latency)
                } else {
                    let hit = self.sys.access_hit(core, addr, AccessKind::Load);
                    (self.mem.read_word(word_of(phys)), res_lat + hit)
                }
            }
        };
        self.txs[core].note_read(line);
        self.tx_stats[core].tx_loads += 1;
        self.tracer.emit(now, core, TraceEvent::TxRead { line });
        if let Some(s) = &self.shadow {
            if let Err(v) = s.check_tx_load(core, addr, value) {
                panic!("isolation violated at t={now}: {v}");
            }
        }
        Access::Done { value, latency }
    }

    /// Transactional store.
    pub fn tx_store(&mut self, now: Cycle, core: CoreId, addr: Addr, value: u64) -> Access {
        self.settle(now);
        debug_assert!(self.in_tx(core), "tx_store outside a transaction");
        if self.txs[core].doomed {
            return Access::MustAbort { latency: 1 };
        }
        let line = line_of(addr);
        if let Some(a) = self.sw_lock_nacked(now, core, line, 0) {
            return a;
        }
        // Eager conflict check before any bookkeeping, unless this
        // transaction already owns the line (exact write-set check: a
        // signature false positive must not skip the check). Lazy
        // transactions defer all conflicts to commit.
        let owned = self.txs[core].writes_contain(line);
        if !self.txs[core].lazy && !owned {
            if let Some(nacker) = self.find_conflict(now, core, line, true) {
                let must_abort = self.note_nack(core, nacker, true);
                let latency = self.sys.nack_latency(now, core, line, nacker);
                self.trace_nack(now, core, nacker, line, latency, must_abort);
                return Access::Nacked { nacker, latency, must_abort };
            }
            self.doom_lazy_conflictors(now, core, line);
        }
        let mut env =
            VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now };
        let (target, vm_lat) = self.vm.prepare_store(&mut env, core, addr, value, true);
        let lazy = self.txs[core].lazy;
        let latency = match target {
            StoreTarget::Overflow => {
                // Capacity exhausted before any bookkeeping: the write
                // signature and write set were not touched, so the abort
                // leaks nothing (INV-12). The caller aborts and climbs the
                // escalation ladder.
                self.tx_stats[core].overflow_aborts += 1;
                self.tracer.emit(now, core, TraceEvent::OverflowAbort { line });
                return Access::Overflow { latency: vm_lat + 1 };
            }
            StoreTarget::Buffered => vm_lat + self.cfg.l1.latency,
            StoreTarget::Mem(phys) if lazy => {
                // Lazy conflict detection: the store stays private until
                // commit — no ownership request, no invalidations. With
                // SUV backing the lazy mode, the functional write to the
                // (redirected) location *is* the final data movement; the
                // commit merely flips the entry.
                self.mem.write_word(word_of(phys), value);
                vm_lat + self.cfg.l1.latency
            }
            StoreTarget::Mem(phys) => {
                // As with loads: GETM targets the original address; only
                // the functional write lands at the (possibly redirected)
                // location.
                let lat = if self.sys.has_permission(core, addr, AccessKind::Store) {
                    self.sys.access_hit(core, addr, AccessKind::Store)
                } else {
                    let f = self.sys.fill_traced(
                        now + vm_lat,
                        core,
                        addr,
                        AccessKind::Store,
                        &mut self.tracer,
                    );
                    if let Some(ev) = f.evicted {
                        self.vm.on_eviction(core, &ev);
                        if ev.speculative {
                            self.txs[core].overflowed_l1 = true;
                            self.overflow.speculative_evictions += 1;
                            self.tracer.emit(now, core, TraceEvent::SpecEviction { line: ev.line });
                        }
                    }
                    f.latency
                };
                self.mem.write_word(word_of(phys), value);
                self.sys.mark_speculative(core, addr);
                vm_lat + lat
            }
        };
        self.txs[core].note_write(line);
        self.tx_stats[core].tx_stores += 1;
        self.tracer.emit(now, core, TraceEvent::TxWrite { line });
        if let Some(s) = &mut self.shadow {
            s.record_store(core, addr, value);
        }
        Access::Done { value: 0, latency }
    }

    /// Commit the core's transaction (or pop one nesting level).
    pub fn commit_tx(&mut self, now: Cycle, core: CoreId) -> CommitOutcome {
        self.settle(now);
        debug_assert!(self.in_tx(core), "commit outside a transaction");
        if self.txs[core].depth > 1 {
            self.txs[core].depth -= 1;
            if !self.txs[core].frames.is_empty() {
                self.txs[core].merge_top_frame();
                if let Some(s) = &mut self.shadow {
                    s.merge_level(core);
                }
                let mut env =
                    VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now };
                let lat = 1 + self.vm.commit_level(&mut env, core);
                return CommitOutcome::Committed { latency: lat, committing: 0 };
            }
            return CommitOutcome::Committed { latency: 1, committing: 0 };
        }
        if self.txs[core].doomed {
            return CommitOutcome::MustAbort { latency: 1 };
        }
        if self.txs[core].lazy {
            self.commit_lazy(now, core)
        } else {
            self.commit_eager(now, core)
        }
    }

    fn commit_eager(&mut self, now: Cycle, core: CoreId) -> CommitOutcome {
        let mut env =
            VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now };
        let lat = self.vm.commit(&mut env, core);
        self.tracer.emit(now, core, TraceEvent::TxCommit { window: lat, committing: 0 });
        self.finish_tx(now, core, true, lat);
        CommitOutcome::Committed { latency: lat, committing: 0 }
    }

    fn commit_lazy(&mut self, now: Cycle, core: CoreId) -> CommitOutcome {
        // Arbitrate for the chip-wide commit token.
        let start = now.max(self.commit_token_free) + self.cfg.dyntm.commit_arbitration_cycles;
        let wait = start - now;
        self.tracer.emit(now, core, TraceEvent::CommitArbitration { wait });
        // Validate: the committer's write set against every live
        // transaction. Eager transactions own their lines — the committer
        // loses. Conflicting lazy transactions are doomed.
        let write_set: Vec<LineAddr> = self.txs[core].all_write_lines();
        // A live software commit window on any write line: the lazy
        // committer loses (the software commit already owns those lines).
        for &l in &write_set {
            if self.sw.lock_owner(start, l, core).is_some() {
                self.tx_stats[core].lazy_validation_aborts += 1;
                self.tx_stats[core].hw_sw_conflicts += 1;
                self.tracer.emit(now, core, TraceEvent::HwSwConflict { line: l, dir: 0 });
                return CommitOutcome::MustAbort { latency: wait };
            }
        }
        let mut doom: Vec<CoreId> = Vec::new();
        for (c, t) in self.txs.iter().enumerate() {
            if c == core || !t.isolation_live(start) {
                continue;
            }
            let conflicted = write_set.iter().any(|l| t.rsig_hit(*l) || t.wsig_hit(*l));
            if !conflicted {
                continue;
            }
            let defender_wins = match t.status {
                TxStatus::Active => !t.lazy,
                _ => true, // committing/aborting windows always win
            };
            if defender_wins {
                self.tx_stats[core].lazy_validation_aborts += 1;
                return CommitOutcome::MustAbort { latency: wait };
            }
            doom.push(c);
        }
        for c in doom {
            self.txs[c].doomed = true;
        }
        // Merge (write-buffer drain, or an SUV flash when SUV backs the
        // lazy mode), holding the token.
        let mut env =
            VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now: start };
        let merge = self.vm.commit(&mut env, core);
        self.commit_token_free = start + merge;
        let total = wait + merge;
        self.tracer.emit(now, core, TraceEvent::TxCommit { window: total, committing: total });
        self.finish_tx(now, core, true, total);
        CommitOutcome::Committed { latency: total, committing: total }
    }

    /// Partially abort the innermost nested level (LogTM-Nested partial
    /// abort). Returns the rollback duration, or `None` when no nested
    /// frame exists (or the transaction is doomed) and a full abort is
    /// required instead. The caller must pair this with the failed
    /// `begin_tx` level.
    pub fn abort_nested(&mut self, now: Cycle, core: CoreId) -> Option<Cycle> {
        self.settle(now);
        let t = &mut self.txs[core];
        if t.depth <= 1 || t.frames.is_empty() || t.doomed {
            return None;
        }
        t.depth -= 1;
        t.drop_top_frame();
        if let Some(s) = &mut self.shadow {
            s.drop_level(core);
        }
        let mut env =
            VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now };
        Some(self.vm.abort_level(&mut env, core) + 1)
    }

    /// Abort the core's transaction. Returns the abort (repair) duration;
    /// the isolation window stays open that long.
    pub fn abort_tx(&mut self, now: Cycle, core: CoreId) -> Cycle {
        self.settle(now);
        debug_assert!(self.txs[core].depth > 0, "abort outside a transaction");
        assert!(
            !self.txs[core].irrevocable,
            "irrevocable transaction on core {core} aborted at t={now} — the escalation \
             ladder's commit guarantee is broken"
        );
        let mut env =
            VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now };
        let lat = self.vm.abort(&mut env, core) + self.cfg.htm.restore_cycles;
        self.tracer.emit(now, core, TraceEvent::TxAbort { window: lat });
        self.finish_tx(now, core, false, lat);
        lat
    }

    /// Common end-of-transaction bookkeeping.
    fn finish_tx(&mut self, now: Cycle, core: CoreId, committed: bool, window: Cycle) {
        // Overflow accounting (Table V).
        if self.txs[core].overflowed_l1 {
            self.overflow.l1_data_overflow_txns += 1;
        }
        let (rt_l1, rt_mem) = self.vm.take_rt_overflow(core);
        if rt_l1 {
            self.overflow.rt_l1_overflow_txns += 1;
        }
        if rt_mem {
            self.overflow.rt_full_overflow_txns += 1;
        }
        let write_lines = self.txs[core].all_write_lines();
        // A hardware commit invalidates every in-flight software
        // transaction whose read set it overlaps: value validation alone
        // cannot catch an ABA overwrite, so the doom is eager.
        if committed && !write_lines.is_empty() {
            for c in 0..self.txs.len() {
                if c == core || !self.sw.active(c) || self.sw.doomed(c) {
                    continue;
                }
                if let Some(&l) = write_lines.iter().find(|&&l| self.sw.reads_line(c, l)) {
                    self.sw.doom(c);
                    self.tx_stats[c].hw_sw_conflicts += 1;
                    self.tracer.emit(now, c, TraceEvent::HwSwConflict { line: l, dir: 1 });
                }
            }
        }
        let st = &mut self.tx_stats[core];
        st.max_write_set = st.max_write_set.max(write_lines.len() as u64);
        if committed {
            st.commits += 1;
            st.committed_tx_cycles += now + window - self.txs[core].begin_time;
            if self.txs[core].irrevocable {
                self.tx_stats[core].irrevocable_commits += 1;
                self.tracer.emit(now, core, TraceEvent::IrrevocableCommit { window });
                self.vm.set_irrevocable(core, false);
                // Drop the flag with the commit, not with the isolation
                // window: the successor may begin irrevocable (the
                // scheduler token is already released by then) and a stale
                // flag here would make `note_nack` treat this *committed*
                // transaction as a second irrevocable owner — telling the
                // new owner to abort and breaking the commit guarantee.
                self.txs[core].irrevocable = false;
            }
            self.txs[core].status = TxStatus::Committing { until: now + window };
        } else {
            st.aborts += 1;
            self.txs[core].attempts += 1;
            self.txs[core].status = TxStatus::Aborting { until: now + window };
        }
        self.settle_due = self.settle_due.min(now + window);
        self.txs[core].depth = 0;
        self.sys.clear_speculative(core);
        let site = self.txs[core].site;
        self.vm.tx_finished(core, site, committed);
        if let Some(s) = &mut self.shadow {
            s.finish(core, committed);
        }
        // Transaction-boundary invariant audits (never charged cycles).
        if self.cfg.check >= CheckLevel::Cheap {
            let owners = self.txs.iter().filter(|t| t.irrevocable).count();
            assert!(
                owners <= 1,
                "INV-11 violated at tx end (t={now}): {owners} irrevocable owners"
            );
            if let Err(v) = self.vm.check_invariants() {
                panic!("version-manager invariant violated at tx end (t={now}): {v}");
            }
            self.check_inv13(now);
            if self.cfg.check >= CheckLevel::Full {
                if let Err(v) = self.sys.check_invariants() {
                    panic!("coherence invariant violated at tx end (t={now}): {v}");
                }
            }
        }
    }

    /// Record an escalation of `core`'s next attempt to the next ladder
    /// tier (reason codes: 0 = overflow retry budget spent, 1 =
    /// abort-count watchdog, 2 = starvation-cycles watchdog, 3 =
    /// software-fallback retry budget spent). Called by the sim layer when
    /// the ladder or the watchdog fires.
    pub fn note_escalation(&mut self, now: Cycle, core: CoreId, reason: u32) {
        let st = &mut self.tx_stats[core];
        st.watchdog_escalations += 1;
        match reason {
            0 => st.esc_overflow += 1,
            1 => st.esc_abort_watchdog += 1,
            2 => st.esc_starvation += 1,
            _ => st.esc_sw_validation += 1,
        }
        self.tracer.emit(now, core, TraceEvent::WatchdogEscalation { reason });
    }

    /// Record a spuriously injected capacity overflow (`--faults
    /// overflow=P`): accounted exactly like a real pool-exhaustion abort
    /// — same counter, same trace event — so the escalation ladder and
    /// the reports cannot tell the fault from the real thing.
    pub fn note_injected_overflow(&mut self, now: Cycle, core: CoreId) {
        self.tx_stats[core].overflow_aborts += 1;
        self.tracer.emit(now, core, TraceEvent::OverflowAbort { line: 0 });
    }

    /// Consecutive aborts of `core`'s current dynamic transaction (the
    /// watchdog's abort-count signal).
    #[must_use]
    pub fn tx_attempts(&self, core: CoreId) -> u32 {
        self.txs[core].attempts
    }

    /// Randomized exponential backoff after an abort, in cycles. With
    /// `RobustnessConfig::max_backoff_cycles` set, the window is clamped
    /// to that ceiling and the draw comes from a dedicated per-core
    /// xorshift stream — deterministic jitter that bounds tail latency
    /// without perturbing the uncapped RNG sequence (so the default
    /// `max_backoff_cycles = 0` reproduces pre-cap runs bit for bit).
    pub fn backoff_cycles(&mut self, now: Cycle, core: CoreId) -> Cycle {
        let b = self.cfg.htm.backoff;
        let attempts = self.txs[core].attempts.min(16);
        let window = (b.base * b.multiplier.pow(attempts.saturating_sub(1))).min(b.cap);
        let cap = self.cfg.robust.max_backoff_cycles;
        let cycles = if cap != 0 {
            let s = &mut self.backoff_xs[core];
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            1 + *s % window.min(cap).max(1)
        } else {
            self.rngs[core].random_range(1..=window.max(1))
        };
        self.tracer.emit(now, core, TraceEvent::Backoff { cycles });
        cycles
    }

    /// INV-13: no line is ever concurrently software-locked and held in a
    /// live *eager* hardware write set (an eager writer owns its lines in
    /// place — a software commit window over the same line would mean two
    /// owners). Lazy write sets are exempt: they hold no ownership until
    /// commit, and the lazy committer defers to live software locks.
    fn check_inv13(&self, now: Cycle) {
        for (line, owner) in self.sw.live_locks(now) {
            for (c, t) in self.txs.iter().enumerate() {
                assert!(
                    c == owner || t.lazy || !t.isolation_live(now) || !t.writes_contain(line),
                    "INV-13 violated at t={now}: line {line:#x} is software-locked by \
                     core {owner} while core {c}'s live eager hardware write set holds it"
                );
            }
        }
    }

    /// Is `core` inside a software-fallback transaction?
    #[must_use]
    pub fn in_sw_tx(&self, core: CoreId) -> bool {
        self.sw.active(core)
    }

    /// Begin a software-fallback attempt (`attempt` counts fallback
    /// retries of this dynamic transaction, for the trace). The episode is
    /// announced as a *lazy* transaction — software writes are buffered
    /// and take effect at commit, which is exactly what the
    /// serializability checker's lazy replay models.
    pub fn begin_sw_tx(&mut self, now: Cycle, core: CoreId, site: TxSite, attempt: u32) -> Cycle {
        self.settle(now);
        debug_assert_eq!(self.txs[core].depth, 0, "software fallback under a hardware tx");
        self.tracer.emit(now, core, TraceEvent::FallbackBegin { attempt });
        self.tracer.emit(now, core, TraceEvent::TxBegin { site: site.0, lazy: true });
        self.sw.begin_sw(core, site, now);
        self.cfg.htm.checkpoint_cycles + swvm::SW_BEGIN_CYCLES
    }

    /// Software-fallback load: redo-log hit, else the *committed* value.
    /// A line a live eager hardware writer owns is NACKed (its in-place
    /// speculative value must never enter a software read set), as is a
    /// line inside another software commit window. Validated reads are
    /// value-logged for commit-time validation.
    pub fn sw_load(&mut self, now: Cycle, core: CoreId, addr: Addr) -> Access {
        self.settle(now);
        debug_assert!(self.sw.active(core), "sw_load outside a software transaction");
        if self.sw.doomed(core) {
            return Access::MustAbort { latency: 1 };
        }
        let line = line_of(addr);
        if let Some(v) = self.sw.buffered_value(core, addr) {
            self.tx_stats[core].tx_loads += 1;
            self.tracer.emit(now, core, TraceEvent::TxRead { line });
            return Access::Done {
                value: v,
                latency: swvm::SW_ACCESS_CYCLES + self.cfg.l1.latency,
            };
        }
        if let Some(a) = self.sw_lock_nacked(now, core, line, 0) {
            return a;
        }
        if let Some(nacker) = self.find_conflict(now, core, line, false) {
            let must_abort = self.note_nack(core, nacker, false);
            self.tx_stats[core].hw_sw_conflicts += 1;
            let latency = self.sys.nack_latency(now, core, line, nacker);
            self.trace_nack(now, core, nacker, line, latency, must_abort);
            return Access::Nacked { nacker, latency, must_abort };
        }
        let target = {
            let mut env =
                VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now };
            self.vm.resolve_load(&mut env, core, addr, false)
        };
        let (value, res_lat) = match target {
            (LoadTarget::Mem(p), l) => (self.mem.read_word(word_of(p)), l),
            (LoadTarget::Value(v), l) => (v, l),
        };
        self.sw.note_read(core, addr, value);
        self.tx_stats[core].tx_loads += 1;
        self.tracer.emit(now, core, TraceEvent::TxRead { line });
        if let Some(s) = &self.shadow {
            if let Err(v) = s.check_nontx_load(core, addr, value) {
                panic!("software-read isolation violated at t={now}: {v}");
            }
        }
        // Software reads run through instrumented barriers and are not
        // cached speculatively: charge an L2-class access plus the
        // software bookkeeping.
        Access::Done { value, latency: res_lat + swvm::SW_ACCESS_CYCLES + self.cfg.l2.latency }
    }

    /// Software-fallback store: buffered in the redo log, published at
    /// commit. Never overflows — this is the whole point of the tier: no
    /// hardware version-management capacity is consumed.
    pub fn sw_store(&mut self, now: Cycle, core: CoreId, addr: Addr, value: u64) -> Access {
        self.settle(now);
        debug_assert!(self.sw.active(core), "sw_store outside a software transaction");
        if self.sw.doomed(core) {
            return Access::MustAbort { latency: 1 };
        }
        self.sw.buffer_store(core, addr, value);
        self.tx_stats[core].tx_stores += 1;
        self.tracer.emit(now, core, TraceEvent::TxWrite { line: line_of(addr) });
        Access::Done { value: 0, latency: swvm::SW_ACCESS_CYCLES + self.cfg.l1.latency }
    }

    /// Commit a software-fallback transaction. All phases happen at the
    /// single instant `now` (the machine is driven in global time order,
    /// so the whole call is atomic): lock acquisition over the sorted
    /// write lines, value validation of the read set against committed
    /// memory, publication of the redo log, and installation of the
    /// commit window during which the written lines stay software-locked.
    ///
    /// Conflict resolution: a live hardware *writer* always wins (see
    /// DESIGN.md §9 — aborting an eager writer would let its undo restore
    /// clobber this commit), irrevocable transactions win everything, and
    /// hardware *readers* of published lines are doomed (the software
    /// commit wins, exactly like a lazy committer dooming lazy readers).
    pub fn commit_sw_tx(&mut self, now: Cycle, core: CoreId) -> SwCommitOutcome {
        self.settle(now);
        debug_assert!(self.sw.active(core), "commit_sw_tx outside a software transaction");
        if self.sw.doomed(core) {
            return SwCommitOutcome::MustAbort { reason: 2, latency: 1 };
        }
        let write_lines = self.sw.write_lines_sorted(core);
        // Phase 1: another software committer's live lock window on
        // anything we touched — stall until it closes, then retry.
        for &l in &write_lines {
            if let Some(owner) = self.sw.lock_owner(now, l, core) {
                let must_abort = self.note_nack(core, owner, false);
                let latency = self.sys.nack_latency(now, core, l, owner);
                self.trace_nack(now, core, owner, l, latency, must_abort);
                return SwCommitOutcome::Busy { nacker: owner, latency };
            }
        }
        for i in 0..self.sw.reads(core).len() {
            let (addr, _) = self.sw.reads(core)[i];
            let l = line_of(addr);
            if let Some(owner) = self.sw.lock_owner(now, l, core) {
                let must_abort = self.note_nack(core, owner, false);
                let latency = self.sys.nack_latency(now, core, l, owner);
                self.trace_nack(now, core, owner, l, latency, must_abort);
                return SwCommitOutcome::Busy { nacker: owner, latency };
            }
        }
        // Phase 2: hardware conflicts on the write set.
        for &l in &write_lines {
            for (c, t) in self.txs.iter().enumerate() {
                if c == core || !t.isolation_live(now) {
                    continue;
                }
                let defends = match t.status {
                    TxStatus::Active => !t.lazy,
                    TxStatus::Aborting { .. } | TxStatus::Committing { .. } => true,
                    TxStatus::Idle => false,
                };
                let hw_wins = (defends && t.wsig_hit(l))
                    || (t.irrevocable && (t.rsig_hit(l) || t.wsig_hit(l)));
                if hw_wins {
                    self.tx_stats[core].hw_sw_conflicts += 1;
                    self.tracer.emit(now, core, TraceEvent::HwSwConflict { line: l, dir: 2 });
                    return SwCommitOutcome::MustAbort { reason: 2, latency: 1 };
                }
            }
        }
        // Phase 3: value validation. A read line a live hardware writer
        // owns fails outright (memory may hold its speculative value);
        // otherwise the observed value must still match committed memory —
        // all at this one instant, so a full match proves the read set is
        // a consistent snapshot at the commit point.
        let reads: Vec<(Addr, u64)> = self.sw.reads(core).to_vec();
        for &(addr, observed) in &reads {
            let l = line_of(addr);
            if self.find_conflict(now, core, l, false).is_some() {
                return SwCommitOutcome::MustAbort { reason: 0, latency: 1 };
            }
            let target = {
                let mut env =
                    VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now };
                self.vm.resolve_load(&mut env, core, addr, false).0
            };
            let current = match target {
                LoadTarget::Mem(p) => self.mem.read_word(word_of(p)),
                LoadTarget::Value(v) => v,
            };
            if current != observed {
                return SwCommitOutcome::MustAbort { reason: 0, latency: 1 };
            }
        }
        // Phase 4: publish the redo log (through the hardware scheme's
        // committed-location resolution, exactly like a non-transactional
        // store) and doom hardware readers of the published lines.
        let writes: Vec<(Addr, u64)> = self.sw.writes(core).to_vec();
        let latency = swvm::SW_COMMIT_BASE_CYCLES
            + swvm::SW_COMMIT_PER_LINE_CYCLES * write_lines.len() as Cycle;
        for &(addr, value) in &writes {
            let target = {
                let mut env =
                    VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now };
                self.vm.prepare_store(&mut env, core, addr, value, false).0
            };
            match target {
                StoreTarget::Mem(p) => self.mem.write_word(word_of(p), value),
                StoreTarget::Buffered | StoreTarget::Overflow => {
                    unreachable!("software publish can neither buffer nor overflow")
                }
            }
            self.shadow_nontx_store(addr, value);
        }
        for &l in &write_lines {
            for c in 0..self.txs.len() {
                if c == core {
                    continue;
                }
                let t = &self.txs[c];
                if !matches!(t.status, TxStatus::Active) || t.doomed || t.irrevocable {
                    continue;
                }
                let hit = if t.lazy { t.rsig_hit(l) || t.wsig_hit(l) } else { t.rsig_hit(l) };
                if hit {
                    self.txs[c].doomed = true;
                    self.tx_stats[c].hw_sw_conflicts += 1;
                    self.tracer.emit(now, c, TraceEvent::HwSwConflict { line: l, dir: 2 });
                }
            }
        }
        // ... and every concurrent *software* reader of a published line,
        // for the same reason a hardware commit dooms them: value
        // validation is word-granular, so a commit that changes a
        // different word of a read line would slip through it — while
        // conflict serializability (INV-11) is judged line-granular.
        for c in 0..self.txs.len() {
            if c == core || !self.sw.active(c) || self.sw.doomed(c) {
                continue;
            }
            if let Some(&l) = write_lines.iter().find(|&&l| self.sw.reads_line(c, l)) {
                self.sw.doom(c);
                self.tracer.emit(now, c, TraceEvent::HwSwConflict { line: l, dir: 3 });
            }
        }
        self.sw.lock(core, &write_lines, now, now + latency);
        let begin = self.sw.begin_time(core);
        let st = &mut self.tx_stats[core];
        st.commits += 1;
        st.sw_commits += 1;
        st.committed_tx_cycles += now + latency - begin;
        st.max_write_set = st.max_write_set.max(write_lines.len() as u64);
        self.tracer.emit(now, core, TraceEvent::FallbackCommit { writes: writes.len() as u64 });
        self.tracer.emit(now, core, TraceEvent::TxCommit { window: latency, committing: latency });
        self.sw.finish(core);
        if self.cfg.check >= CheckLevel::Cheap {
            self.check_inv13(now);
            if let Err(v) = VersionManager::check_invariants(&self.sw) {
                panic!("software-tier invariant violated at tx end (t={now}): {v}");
            }
        }
        SwCommitOutcome::Committed { latency }
    }

    /// Abort a software-fallback transaction (reason codes mirror
    /// [`TraceEvent::FallbackAbort`]). Cheap: the redo log is discarded;
    /// nothing was written in place, so there is no repair window.
    pub fn abort_sw_tx(&mut self, now: Cycle, core: CoreId, reason: u32) -> Cycle {
        self.settle(now);
        debug_assert!(self.sw.active(core), "abort_sw_tx outside a software transaction");
        let latency = swvm::SW_ABORT_CYCLES;
        let st = &mut self.tx_stats[core];
        st.aborts += 1;
        st.sw_aborts += 1;
        self.tracer.emit(now, core, TraceEvent::FallbackAbort { reason });
        self.tracer.emit(now, core, TraceEvent::TxAbort { window: latency });
        self.sw.finish(core);
        latency
    }

    /// Non-transactional load (strong isolation: the same resolution and
    /// conflict checks apply).
    pub fn nontx_load(&mut self, now: Cycle, core: CoreId, addr: Addr) -> Access {
        self.settle(now);
        let line = line_of(addr);
        if let Some(a) = self.sw_lock_nacked(now, core, line, 0) {
            return a;
        }
        let mut env =
            VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now };
        let (target, res_lat) = self.vm.resolve_load(&mut env, core, addr, false);
        let phys = match target {
            LoadTarget::Mem(p) => p,
            LoadTarget::Value(v) => {
                if let Some(s) = &self.shadow {
                    if let Err(e) = s.check_nontx_load(core, addr, v) {
                        panic!("strong isolation violated at t={now}: {e}");
                    }
                }
                return Access::Done { value: v, latency: res_lat + 1 };
            }
        };
        let (value, latency) = if !self.sys.has_permission(core, addr, AccessKind::Load) {
            if let Some(nacker) = self.find_conflict(now, core, line, false) {
                let must_abort = self.note_nack(core, nacker, false);
                let latency = res_lat + self.sys.nack_latency(now + res_lat, core, line, nacker);
                self.trace_nack(now, core, nacker, line, latency, must_abort);
                return Access::Nacked { nacker, latency, must_abort };
            }
            let f =
                self.sys.fill_traced(now + res_lat, core, addr, AccessKind::Load, &mut self.tracer);
            if let Some(ev) = f.evicted {
                self.vm.on_eviction(core, &ev);
            }
            (self.mem.read_word(word_of(phys)), res_lat + f.latency)
        } else {
            let hit = self.sys.access_hit(core, addr, AccessKind::Load);
            (self.mem.read_word(word_of(phys)), res_lat + hit)
        };
        if let Some(s) = &self.shadow {
            if let Err(v) = s.check_nontx_load(core, addr, value) {
                panic!("strong isolation violated at t={now}: {v}");
            }
        }
        Access::Done { value, latency }
    }

    /// Non-transactional store.
    pub fn nontx_store(&mut self, now: Cycle, core: CoreId, addr: Addr, value: u64) -> Access {
        self.settle(now);
        let line = line_of(addr);
        if let Some(a) = self.sw_lock_nacked(now, core, line, 0) {
            return a;
        }
        let mut env =
            VmEnv { mem: &mut self.mem, sys: &mut self.sys, tracer: &mut self.tracer, now };
        let (target, vm_lat) = self.vm.prepare_store(&mut env, core, addr, value, false);
        let phys = match target {
            StoreTarget::Mem(p) => p,
            StoreTarget::Buffered => unreachable!("non-transactional stores are never buffered"),
            StoreTarget::Overflow => {
                // Non-transactional stores never allocate version-manager
                // capacity (no logging, no buffering; SUV redirect-back
                // only frees slots).
                unreachable!("non-transactional store overflowed")
            }
        };
        if !self.sys.has_permission(core, addr, AccessKind::Store) {
            if let Some(nacker) = self.find_conflict(now, core, line, true) {
                let must_abort = self.note_nack(core, nacker, false);
                let latency = vm_lat + self.sys.nack_latency(now + vm_lat, core, line, nacker);
                self.trace_nack(now, core, nacker, line, latency, must_abort);
                return Access::Nacked { nacker, latency, must_abort };
            }
            self.doom_lazy_conflictors(now, core, line);
            let f =
                self.sys.fill_traced(now + vm_lat, core, addr, AccessKind::Store, &mut self.tracer);
            if let Some(ev) = f.evicted {
                self.vm.on_eviction(core, &ev);
            }
            self.mem.write_word(word_of(phys), value);
            self.shadow_nontx_store(addr, value);
            Access::Done { value: 0, latency: vm_lat + f.latency }
        } else {
            let hit = self.sys.access_hit(core, addr, AccessKind::Store);
            self.mem.write_word(word_of(phys), value);
            self.shadow_nontx_store(addr, value);
            Access::Done { value: 0, latency: vm_lat + hit }
        }
    }

    fn shadow_nontx_store(&mut self, addr: Addr, value: u64) {
        if let Some(s) = &mut self.shadow {
            s.note_nontx_store(addr, value);
        }
    }

    /// Fast setup write used by workload initialization (functional only,
    /// no timing, no isolation).
    pub fn poke(&mut self, addr: Addr, value: u64) {
        self.mem.write_word(word_of(addr), value);
        self.shadow_nontx_store(addr, value);
    }

    /// Fast functional read for result verification (no timing). Resolves
    /// committed redirections through the version manager.
    pub fn peek(&mut self, addr: Addr) -> u64 {
        let mut env = VmEnv {
            mem: &mut self.mem,
            sys: &mut self.sys,
            tracer: &mut self.tracer,
            now: u64::MAX / 2,
        };
        let value = match self.vm.resolve_load(&mut env, 0, addr, false) {
            (LoadTarget::Mem(p), _) => self.mem.read_word(word_of(p)),
            (LoadTarget::Value(v), _) => v,
        };
        // With no speculative state pending, a peek must see exactly the
        // committed shadow state — the end-of-run value oracle.
        if let Some(s) = &self.shadow {
            if s.quiescent() {
                if let Err(v) = s.check_nontx_load(0, addr, value) {
                    panic!("committed state diverged from shadow: {v}");
                }
            }
        }
        value
    }

    /// Aggregated transaction statistics.
    #[must_use]
    pub fn tx_stats(&self) -> TxStats {
        let mut s = TxStats::default();
        for t in &self.tx_stats {
            s.merge(t);
        }
        s
    }

    /// Overflow statistics (Table V).
    #[must_use]
    pub fn overflow_stats(&self) -> OverflowStats {
        self.overflow
    }

    /// Borrow the version manager (for scheme-specific statistics).
    #[must_use]
    pub fn vm(&self) -> &dyn VersionManager {
        self.vm.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logtm::LogTmSe;
    use suv_types::MachineConfig;

    fn machine() -> HtmMachine {
        let cfg = MachineConfig::small_test();
        HtmMachine::new(&cfg, Box::new(LogTmSe::new(cfg.n_cores, cfg.htm)))
    }

    fn must_done(a: Access) -> (u64, Cycle) {
        match a {
            Access::Done { value, latency } => (value, latency),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn single_tx_commit_flow() {
        let mut m = machine();
        m.poke(0x100, 5);
        let mut now = 0;
        now += m.begin_tx(now, 0, TxSite(1));
        let (v, l) = must_done(m.tx_load(now, 0, 0x100));
        assert_eq!(v, 5);
        now += l;
        let (_, l) = must_done(m.tx_store(now, 0, 0x100, 6));
        now += l;
        match m.commit_tx(now, 0) {
            CommitOutcome::Committed { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(m.peek(0x100), 6);
        assert_eq!(m.tx_stats().commits, 1);
    }

    #[test]
    fn abort_restores_memory() {
        let mut m = machine();
        m.poke(0x200, 10);
        let mut now = 0;
        now += m.begin_tx(now, 0, TxSite(1));
        let (_, l) = must_done(m.tx_store(now, 0, 0x200, 99));
        now += l;
        assert_eq!(m.mem.read_word(0x200), 99, "eager update in place");
        let d = m.abort_tx(now, 0);
        assert!(d > 0);
        assert_eq!(m.peek(0x200), 10, "undo log restored the old value");
        assert_eq!(m.tx_stats().aborts, 1);
    }

    #[test]
    fn conflicting_store_is_nacked() {
        let mut m = machine();
        m.poke(0x300, 1);
        let mut t0 = 0;
        t0 += m.begin_tx(t0, 0, TxSite(1));
        let (_, l) = must_done(m.tx_load(t0, 0, 0x300));
        t0 += l;
        let _ = t0;
        // Core 1 (younger) writes the line core 0 read.
        let mut t1 = 50;
        t1 += m.begin_tx(t1, 1, TxSite(2));
        match m.tx_store(t1, 1, 0x300, 2) {
            Access::Nacked { nacker, must_abort, latency } => {
                assert_eq!(nacker, 0);
                assert!(!must_abort, "no cycle yet");
                assert!(latency > 0);
            }
            other => panic!("expected NACK, got {other:?}"),
        }
        assert_eq!(m.tx_stats().nacks_received, 1);
    }

    #[test]
    fn read_read_is_no_conflict() {
        let mut m = machine();
        m.poke(0x340, 7);
        let mut t0 = 0;
        t0 += m.begin_tx(t0, 0, TxSite(1));
        must_done(m.tx_load(t0, 0, 0x340));
        let mut t1 = 30;
        t1 += m.begin_tx(t1, 1, TxSite(2));
        let (v, _) = must_done(m.tx_load(t1, 1, 0x340));
        assert_eq!(v, 7);
    }

    #[test]
    fn possible_cycle_rule_aborts_younger() {
        let mut m = machine();
        m.poke(0x400, 0); // line A
        m.poke(0x440, 0); // line B
                          // T0 (older) reads A; T1 (younger) reads B.
        let mut t0 = 0;
        t0 += m.begin_tx(t0, 0, TxSite(1));
        let (_, l) = must_done(m.tx_load(t0, 0, 0x400));
        t0 += l;
        let mut t1 = 20;
        t1 += m.begin_tx(t1, 1, TxSite(2));
        let (_, l) = must_done(m.tx_load(t1, 1, 0x440));
        t1 += l;
        // T0 stores to B -> NACKed by T1; T1 NACKed an older tx, so its
        // possible_cycle flag is set.
        match m.tx_store(t0, 0, 0x440, 1) {
            Access::Nacked { nacker, must_abort, .. } => {
                assert_eq!(nacker, 1);
                assert!(!must_abort, "the older transaction never cycle-aborts");
            }
            other => panic!("{other:?}"),
        }
        // T1 stores to A -> NACKed by T0 (older) while flagged: must abort.
        match m.tx_store(t1, 1, 0x400, 1) {
            Access::Nacked { nacker, must_abort, .. } => {
                assert_eq!(nacker, 0);
                assert!(must_abort, "possible-cycle rule must fire");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(m.tx_stats().cycle_aborts, 1);
    }

    #[test]
    fn isolation_window_defends_during_abort() {
        let mut m = machine();
        m.poke(0x500, 3);
        let mut t0 = 0;
        t0 += m.begin_tx(t0, 0, TxSite(1));
        for i in 0..16u64 {
            let (_, l) = must_done(m.tx_store(t0, 0, 0x500 + i * 64, i));
            t0 += l;
        }
        let d = m.abort_tx(t0, 0);
        assert!(d > 50, "LogTM-SE abort must be slow ({d})");
        // During the abort window another core's access is still NACKed.
        let mut t1 = t0 + d / 2;
        t1 += m.begin_tx(t1, 1, TxSite(2));
        match m.tx_load(t1, 1, 0x500) {
            Access::Nacked { nacker, .. } => assert_eq!(nacker, 0),
            other => panic!("expected NACK during repair window, got {other:?}"),
        }
        // After the window closes the same access succeeds and sees the
        // restored value.
        let t2 = t0 + d + 100;
        let (v, _) = must_done(m.tx_load(t2, 1, 0x500));
        assert_eq!(v, 3);
    }

    #[test]
    fn nontx_store_respects_strong_isolation() {
        let mut m = machine();
        m.poke(0x600, 1);
        let mut t0 = 0;
        t0 += m.begin_tx(t0, 0, TxSite(1));
        must_done(m.tx_load(t0, 0, 0x600));
        // Core 1, not in a transaction, tries to write the line.
        match m.nontx_store(10, 1, 0x600, 9) {
            Access::Nacked { nacker, must_abort, .. } => {
                assert_eq!(nacker, 0);
                assert!(!must_abort);
            }
            other => panic!("strong isolation violated: {other:?}"),
        }
    }

    #[test]
    fn nested_begin_commit_flattened() {
        let mut m = machine();
        let mut now = 0;
        now += m.begin_tx(now, 0, TxSite(1));
        now += m.begin_tx(now, 0, TxSite(2));
        assert_eq!(m.depth(0), 2);
        let (_, l) = must_done(m.tx_store(now, 0, 0x700, 1));
        now += l;
        match m.commit_tx(now, 0) {
            CommitOutcome::Committed { latency, .. } => now += latency,
            other => panic!("{other:?}"),
        }
        assert_eq!(m.depth(0), 1, "inner commit pops one level");
        assert!(m.in_tx(0));
        match m.commit_tx(now, 0) {
            CommitOutcome::Committed { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(m.depth(0), 0);
        assert_eq!(m.tx_stats().commits, 1, "only the outermost commit counts");
    }

    #[test]
    fn backoff_grows_with_attempts() {
        let mut m = machine();
        m.begin_tx(0, 0, TxSite(1));
        m.abort_tx(10, 0);
        let b1: Cycle = (0..32).map(|_| m.backoff_cycles(20, 0)).max().unwrap();
        // Simulate more failed attempts.
        for i in 0..6 {
            let t = 1000 * (i + 1);
            m.begin_tx(t, 0, TxSite(1));
            m.abort_tx(t + 10, 0);
        }
        let b7: Cycle = (0..32).map(|_| m.backoff_cycles(8000, 0)).max().unwrap();
        assert!(b7 > b1, "backoff must grow ({b1} -> {b7})");
        assert!(b7 <= m.config().htm.backoff.cap);
    }

    #[test]
    fn timestamp_survives_retries() {
        let mut m = machine();
        m.begin_tx(100, 0, TxSite(1));
        let ts1 = m.txs[0].timestamp;
        m.abort_tx(110, 0);
        m.begin_tx(500, 0, TxSite(1));
        assert_eq!(m.txs[0].timestamp, ts1, "age kept across retries");
        let now = 510;
        match m.commit_tx(now, 0) {
            CommitOutcome::Committed { .. } => {}
            other => panic!("{other:?}"),
        }
        // After the commit window closes, a fresh transaction gets a new age.
        m.begin_tx(10_000, 0, TxSite(1));
        assert_ne!(m.txs[0].timestamp, ts1);
    }
}

#[cfg(test)]
mod nesting_tests {
    use super::*;
    use crate::logtm::LogTmSe;
    use suv_types::MachineConfig;

    fn machine() -> HtmMachine {
        let cfg = MachineConfig::small_test();
        HtmMachine::new(&cfg, Box::new(LogTmSe::new(cfg.n_cores, cfg.htm)))
    }

    fn done(a: Access) -> (u64, Cycle) {
        match a {
            Access::Done { value, latency } => (value, latency),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn partial_abort_keeps_outer_writes() {
        let mut m = machine();
        m.poke(0x100, 1);
        m.poke(0x140, 2);
        let mut t = 0;
        t += m.begin_tx(t, 0, TxSite(1));
        let (_, l) = done(m.tx_store(t, 0, 0x100, 10)); // outer write
        t += l;
        // Nested level writes a different line, then partially aborts.
        t += m.begin_tx(t, 0, TxSite(2));
        let (_, l) = done(m.tx_store(t, 0, 0x140, 20));
        t += l;
        let d = m.abort_nested(t, 0).expect("LogTM-SE supports partial abort");
        t += d;
        assert_eq!(m.depth(0), 1, "back at the outer level");
        assert_eq!(m.mem.read_word(0x140), 2, "inner write rolled back");
        assert_eq!(m.mem.read_word(0x100), 10, "outer write survives");
        match m.commit_tx(t, 0) {
            CommitOutcome::Committed { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(m.peek(0x100), 10);
        assert_eq!(m.peek(0x140), 2);
    }

    #[test]
    fn partial_abort_restores_outer_speculative_value_on_shared_line() {
        // Outer writes X=10, inner overwrites X=20, inner aborts: X must
        // return to the OUTER speculative value 10, not the pre-tx 1.
        let mut m = machine();
        m.poke(0x200, 1);
        let mut t = 0;
        t += m.begin_tx(t, 0, TxSite(1));
        let (_, l) = done(m.tx_store(t, 0, 0x200, 10));
        t += l;
        t += m.begin_tx(t, 0, TxSite(2));
        let (_, l) = done(m.tx_store(t, 0, 0x200, 20));
        t += l;
        let d = m.abort_nested(t, 0).expect("partial abort");
        t += d;
        let (v, _) = done(m.tx_load(t, 0, 0x200));
        assert_eq!(v, 10, "outer speculative value restored");
        // And a full abort from here restores the pre-transaction value.
        let d = m.abort_tx(t + 5, 0);
        let _ = d;
        assert_eq!(m.peek(0x200), 1);
    }

    #[test]
    fn nested_commit_then_full_abort_unwinds_everything() {
        let mut m = machine();
        m.poke(0x300, 1);
        m.poke(0x340, 2);
        let mut t = 0;
        t += m.begin_tx(t, 0, TxSite(1));
        let (_, l) = done(m.tx_store(t, 0, 0x300, 10));
        t += l;
        t += m.begin_tx(t, 0, TxSite(2));
        let (_, l) = done(m.tx_store(t, 0, 0x340, 20));
        t += l;
        match m.commit_tx(t, 0) {
            CommitOutcome::Committed { latency, .. } => t += latency,
            other => panic!("{other:?}"),
        }
        // Inner committed into the outer; outer aborts: both revert.
        m.abort_tx(t, 0);
        assert_eq!(m.peek(0x300), 1);
        assert_eq!(m.peek(0x340), 2, "inner-committed write dies with the outer abort");
    }

    #[test]
    fn inner_frame_sets_stop_defending_after_partial_abort() {
        let mut m = machine();
        let mut t = 0;
        t += m.begin_tx(t, 0, TxSite(1));
        t += m.begin_tx(t, 0, TxSite(2));
        let (_, l) = done(m.tx_store(t, 0, 0x400, 7));
        t += l;
        let d = m.abort_nested(t, 0).expect("partial abort");
        t += d;
        // Another core can now write the line the aborted level touched.
        let mut t1 = t + 5;
        t1 += m.begin_tx(t1, 1, TxSite(3));
        match m.tx_store(t1, 1, 0x400, 9) {
            Access::Done { .. } => {}
            other => panic!("aborted inner level still defends: {other:?}"),
        }
    }

    /// The gang-clear at the outer commit must also clear marks left by a
    /// partially aborted inner frame (LogTM-SE keeps those lines resident;
    /// FasTM invalidates them). Flushing the L1 afterwards must report no
    /// speculative eviction.
    #[test]
    fn partial_abort_leaves_no_mark_after_outer_commit() {
        let cfg = MachineConfig::small_test();
        assert!(cfg.htm.partial_nesting);
        let vms: [Box<dyn VersionManager>; 2] = [
            Box::new(LogTmSe::new(cfg.n_cores, cfg.htm)),
            Box::new(crate::fastm::FasTm::new(cfg.n_cores, cfg.htm)),
        ];
        for vm in vms {
            let mut m = HtmMachine::new(&cfg, vm);
            let mut t = 0;
            t += m.begin_tx(t, 0, TxSite(1));
            t += done(m.tx_store(t, 0, 0x100, 10)).1;
            t += m.begin_tx(t, 0, TxSite(2));
            for line in [0x100, 0x140, 0x180] {
                t += done(m.tx_store(t, 0, line, 20)).1;
            }
            t += m.abort_nested(t, 0).expect("partial abort");
            match m.commit_tx(t, 0) {
                CommitOutcome::Committed { latency, .. } => t += latency,
                other => panic!("{other:?}"),
            }
            let resident = m.sys.l1_len(0);
            let mut evicted = 0;
            for i in 0..2 * cfg.l1.lines() as u64 {
                if let Some(ev) = m.sys.fill(t, 0, 0x10_0000 + i * 64, AccessKind::Load).evicted {
                    assert!(!ev.speculative, "line {:#x} still marked after commit", ev.line);
                    evicted += 1;
                }
            }
            assert!(evicted >= resident, "flush evicted {evicted} of {resident} resident lines");
        }
    }

    #[test]
    fn abort_nested_returns_none_at_outer_level() {
        let mut m = machine();
        let mut t = 0;
        t += m.begin_tx(t, 0, TxSite(1));
        assert!(m.abort_nested(t, 0).is_none(), "outermost level needs a full abort");
    }
}

#[cfg(test)]
mod sw_fallback_tests {
    use super::*;
    use crate::logtm::LogTmSe;
    use suv_types::MachineConfig;

    fn machine() -> HtmMachine {
        let cfg = MachineConfig::small_test();
        HtmMachine::new(&cfg, Box::new(LogTmSe::new(cfg.n_cores, cfg.htm)))
    }

    fn done(a: Access) -> (u64, Cycle) {
        match a {
            Access::Done { value, latency } => (value, latency),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn sw_tx_commits_and_publishes() {
        let mut m = machine();
        m.poke(0x100, 5);
        let mut t = 0;
        t += m.begin_sw_tx(t, 0, TxSite(1), 1);
        assert!(m.in_sw_tx(0));
        let (v, l) = done(m.sw_load(t, 0, 0x100));
        assert_eq!(v, 5);
        t += l;
        let (_, l) = done(m.sw_store(t, 0, 0x100, 6));
        t += l;
        let (v, _) = done(m.sw_load(t, 0, 0x100));
        assert_eq!(v, 6, "read-own-write through the redo log");
        assert_eq!(m.mem.read_word(0x100), 5, "nothing published before commit");
        match m.commit_sw_tx(t, 0) {
            SwCommitOutcome::Committed { latency } => assert!(latency > 0),
            other => panic!("{other:?}"),
        }
        assert!(!m.in_sw_tx(0));
        assert_eq!(m.peek(0x100), 6);
        let s = m.tx_stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.sw_commits, 1);
        assert_eq!(s.sw_aborts, 0);
    }

    #[test]
    fn sw_commit_window_nacks_hardware_and_nontx_accesses() {
        let mut m = machine();
        m.poke(0x200, 1);
        let mut t = 0;
        t += m.begin_sw_tx(t, 0, TxSite(1), 1);
        let (_, l) = done(m.sw_store(t, 0, 0x200, 2));
        t += l;
        let window = match m.commit_sw_tx(t, 0) {
            SwCommitOutcome::Committed { latency } => latency,
            other => panic!("{other:?}"),
        };
        // During the window a hardware transaction is NACKed...
        let mut t1 = t + 1;
        t1 += m.begin_tx(t1, 1, TxSite(2));
        assert!(t1 < t + window, "begin must land inside the commit window");
        match m.tx_store(t1, 1, 0x200, 9) {
            Access::Nacked { nacker, must_abort, .. } => {
                assert_eq!(nacker, 0);
                assert!(!must_abort, "lock windows close unconditionally: stall, never abort");
            }
            other => panic!("expected NACK inside the commit window, got {other:?}"),
        }
        // ...and so is a non-transactional store.
        match m.nontx_store(t + 2, 2, 0x200, 9) {
            Access::Nacked { nacker, .. } => assert_eq!(nacker, 0),
            other => panic!("expected NACK inside the commit window, got {other:?}"),
        }
        assert!(m.tx_stats().hw_sw_conflicts >= 2);
        // After the window the same store succeeds and sees the published
        // value underneath.
        let t2 = t + window + 50;
        let (v, _) = done(m.tx_load(t2, 1, 0x200));
        assert_eq!(v, 2, "software commit published");
    }

    #[test]
    fn hardware_commit_dooms_overlapping_sw_reader() {
        let mut m = machine();
        m.poke(0x300, 7);
        let mut t = 0;
        t += m.begin_sw_tx(t, 0, TxSite(1), 1);
        let (_, l) = done(m.sw_load(t, 0, 0x300));
        t += l;
        // Core 1 writes and commits the line in hardware. The store is not
        // NACKed — software readers publish no ownership — but the commit
        // invalidates the software read set.
        let mut t1 = t;
        t1 += m.begin_tx(t1, 1, TxSite(2));
        let (_, l) = done(m.tx_store(t1, 1, 0x300, 8));
        t1 += l;
        match m.commit_tx(t1, 1) {
            CommitOutcome::Committed { .. } => {}
            other => panic!("{other:?}"),
        }
        match m.sw_load(t1 + 1, 0, 0x300) {
            Access::MustAbort { .. } => {}
            other => panic!("software tx must be doomed by the hardware commit, got {other:?}"),
        }
        let lat = m.abort_sw_tx(t1 + 2, 0, 2);
        assert!(lat > 0);
        let s = m.tx_stats();
        assert_eq!(s.sw_aborts, 1);
        assert!(s.hw_sw_conflicts >= 1);
    }

    #[test]
    fn live_hardware_writer_beats_sw_commit() {
        let mut m = machine();
        m.poke(0x400, 1);
        let mut t1 = 0;
        t1 += m.begin_tx(t1, 1, TxSite(2));
        let (_, l) = done(m.tx_store(t1, 1, 0x400, 9));
        t1 += l;
        let mut t = t1;
        t += m.begin_sw_tx(t, 0, TxSite(1), 1);
        let (_, l) = done(m.sw_store(t, 0, 0x400, 2)); // buffered, unchecked
        t += l;
        match m.commit_sw_tx(t, 0) {
            SwCommitOutcome::MustAbort { reason: 2, .. } => {}
            other => panic!("hardware writer must win, got {other:?}"),
        }
        m.abort_sw_tx(t + 1, 0, 2);
        // The hardware transaction is untouched and commits its value.
        match m.commit_tx(t + 2, 1) {
            CommitOutcome::Committed { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(m.peek(0x400), 9);
    }

    #[test]
    fn sw_commit_validation_catches_changed_value() {
        let mut m = machine();
        m.poke(0x500, 5);
        let mut t = 0;
        t += m.begin_sw_tx(t, 0, TxSite(1), 1);
        let (v, l) = done(m.sw_load(t, 0, 0x500));
        assert_eq!(v, 5);
        t += l;
        let (_, l) = done(m.sw_store(t, 0, 0x540, 1));
        t += l;
        // A non-transactional store slips in under the read (strong
        // isolation lets it through: software readers do not defend).
        done(m.nontx_store(t, 1, 0x500, 6));
        match m.commit_sw_tx(t + 20, 0) {
            SwCommitOutcome::MustAbort { reason: 0, .. } => {}
            other => panic!("value validation must fail, got {other:?}"),
        }
        m.abort_sw_tx(t + 21, 0, 0);
        assert_eq!(m.peek(0x540), 0, "aborted redo log never published");
    }

    #[test]
    fn sw_read_of_eager_speculative_line_is_nacked() {
        let mut m = machine();
        m.poke(0x600, 1);
        let mut t1 = 0;
        t1 += m.begin_tx(t1, 1, TxSite(2));
        let (_, l) = done(m.tx_store(t1, 1, 0x600, 9)); // in place, speculative
        t1 += l;
        let mut t = t1;
        t += m.begin_sw_tx(t, 0, TxSite(1), 1);
        match m.sw_load(t, 0, 0x600) {
            Access::Nacked { nacker, must_abort, .. } => {
                assert_eq!(nacker, 1);
                assert!(!must_abort);
            }
            other => panic!("speculative value must not leak into a software read: {other:?}"),
        }
        m.abort_sw_tx(t + 1, 0, 2);
    }

    #[test]
    fn concurrent_sw_committer_reports_busy() {
        let mut m = machine();
        m.poke(0x700, 1);
        let mut t = 0;
        t += m.begin_sw_tx(t, 0, TxSite(1), 1);
        let (_, l) = done(m.sw_store(t, 0, 0x700, 2));
        t += l;
        match m.commit_sw_tx(t, 0) {
            SwCommitOutcome::Committed { .. } => {}
            other => panic!("{other:?}"),
        }
        // A second software transaction writing the same line inside the
        // window must wait, then succeed after it closes.
        let mut t1 = t + 1;
        t1 += m.begin_sw_tx(t1, 1, TxSite(2), 1);
        let (_, l) = done(m.sw_store(t1, 1, 0x700, 3));
        t1 += l;
        match m.commit_sw_tx(t1, 1) {
            SwCommitOutcome::Busy { nacker, .. } => assert_eq!(nacker, 0),
            other => panic!("expected Busy inside the lock window, got {other:?}"),
        }
        match m.commit_sw_tx(t1 + 500, 1) {
            SwCommitOutcome::Committed { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(m.peek(0x700), 3);
    }

    #[test]
    fn capped_backoff_is_jittered_deterministic_and_bounded() {
        let mut cfg = MachineConfig::small_test();
        cfg.robust.max_backoff_cycles = 100;
        let draws = |cfg: &MachineConfig| -> Vec<Cycle> {
            let mut m = HtmMachine::new(cfg, Box::new(LogTmSe::new(cfg.n_cores, cfg.htm)));
            // Pile up attempts so the uncapped window would exceed the cap.
            for i in 0..8 {
                let t = 1000 * (i + 1);
                m.begin_tx(t, 0, TxSite(1));
                m.abort_tx(t + 10, 0);
            }
            (0..64).map(|_| m.backoff_cycles(90_000, 0)).collect()
        };
        let a = draws(&cfg);
        let b = draws(&cfg);
        assert_eq!(a, b, "capped backoff must be deterministic");
        assert!(a.iter().all(|&c| (1..=100).contains(&c)), "cap must bound every draw: {a:?}");
        assert!(a.windows(2).any(|w| w[0] != w[1]), "jitter must vary the draws");
    }
}
