//! The deterministic cooperative scheduler — a plain priority event loop.
//!
//! All simulated cores of a cell are multiplexed on **one host thread**:
//! each core is a resumable coroutine (the compiler-generated state
//! machine of its async workload body), and the scheduler is nothing but
//! a priority queue of `(wake time, core id)` pairs drained by the
//! executor loop in `runner.rs`. Exactly one core runs at any instant —
//! the one whose local clock is smallest, ties broken by core id — so
//! machine-state mutations happen in strict global-time order and every
//! run is bit-reproducible.
//!
//! # A handoff is a function return
//!
//! The previous engine gave every simulated core its own OS thread and
//! passed a baton with `thread::unpark`/`thread::park`, which put one
//! mandatory OS context switch (~1–2 µs of kernel time) under every
//! *taken* handoff. Here a core that must give up the CPU simply returns
//! `Poll::Pending` into the executor, which polls the next core's
//! coroutine — a function return plus one heap sift-down, no atomics, no
//! parks, no locks. The yielding core is later than the queue head (or it
//! would not yield), so it is written over the head in place and the
//! displaced head is the core [`Scheduler::dispatch`] runs next; a push
//! and a pop would reach the same queue at twice the cost. Panic handling
//! needs no protocol
//! either: a panicking workload body unwinds straight through the
//! executor on the one and only thread (the old poison/park-wake dance is
//! gone), and the irrevocable single-owner token is an ordinary
//! [`Cell`].
//!
//! # The zero-handoff fast path
//!
//! The common case on a lockstep run is "I am still the global-minimum
//! core" — the sync must decide that and return, thousands of times per
//! baton pass. The scheduler caches the **horizon**: the packed
//! `(wake time, id)` of the earliest *other* runnable core, refreshed at
//! every point the run queue changes (start, yield, barrier, finish).
//! The running core is never in the queue, so a single [`Cell`] load
//! gives the *exact* answer to "am I still the minimum?" — the same
//! `(t, tid) <= (tmin, idmin)` predicate [`Scheduler::yield_decision`]
//! evaluates against the queue head, not a conservative approximation.
//! The schedule (and therefore every trace hash) is bit-identical to
//! both earlier engines, asserted by the golden tuples in
//! `tests/integration_engine.rs`.
//!
//! Cross-cell parallelism is unaffected: `bench` sweeps fan whole cells
//! across host threads through `pool.rs`; within a cell there is nothing
//! left to synchronize.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use suv_types::Cycle;

/// Bits of the packed horizon word reserved for the core id. 1024 cores
/// (`MAX_CORES`) need exactly 10, which still caps clocks at 2^54 cycles,
/// far above the simulator's runaway wall.
const ID_BITS: u32 = 10;

/// Pack a `(time, id)` pair so that `u64` order equals lexicographic
/// `(time, id)` order.
#[inline]
fn pack(t: Cycle, id: usize) -> u64 {
    debug_assert!(t < 1 << (64 - ID_BITS), "clock overflows the packed horizon");
    debug_assert!(id < 1 << ID_BITS, "core id overflows the packed horizon");
    (t << ID_BITS) | id as u64
}

/// The core id of a packed `(time, id)` word.
#[inline]
fn id_of(key: u64) -> usize {
    (key & ((1 << ID_BITS) - 1)) as usize
}

/// Horizon value meaning "no other core is runnable": every packed
/// `(t, tid)` compares `<=` to it, so the fast path always succeeds.
const HORIZON_OPEN: u64 = u64::MAX;

/// The mutable event-loop state. Grouped in one `RefCell` because every
/// operation that touches the queue also touches the barrier bookkeeping.
struct State {
    /// Runnable cores, keyed by packed (wake time, id). Keys are unique,
    /// so the dispatch order is total. The running core is never in the
    /// queue.
    queue: BinaryHeap<Reverse<u64>>,
    /// The queue head a taken yield displaced: out of the queue already,
    /// it is the core [`Scheduler::dispatch`] runs next.
    handoff: Option<usize>,
    /// Cores waiting at the barrier (id, arrival time).
    barrier_waiters: Vec<(usize, Cycle)>,
    /// Per-core barrier release time, written by the last arriver.
    release_time: Vec<Cycle>,
    /// Cores that finished their body.
    finished: usize,
    /// Total cores.
    n: usize,
}

impl State {
    /// Release all barrier waiters at the latest arrival time.
    fn release_barrier(&mut self) {
        let tmax = self.barrier_waiters.iter().map(|(_, t)| *t).max().expect("non-empty");
        for (w, _) in std::mem::take(&mut self.barrier_waiters) {
            self.release_time[w] = tmax;
            self.queue.push(Reverse(pack(tmax, w)));
        }
    }

    /// The packed horizon for the current queue head.
    fn horizon(&self) -> u64 {
        self.queue.peek().map_or(HORIZON_OPEN, |Reverse(key)| *key)
    }
}

/// The event-loop scheduler for one cell. Single-threaded by design
/// (plain `Cell`/`RefCell` state, no atomics): it is shared between the
/// executor and the per-core contexts through an `Rc`.
pub struct Scheduler {
    state: RefCell<State>,
    /// Packed `(time, id)` of the earliest *other* runnable core, or
    /// [`HORIZON_OPEN`]. Kept outside the `RefCell` so the per-access
    /// fast path is one plain load.
    horizon: Cell<u64>,
    /// Baton passes between distinct cores.
    handoffs_taken: Cell<u64>,
    /// Syncs that kept the baton (fast path + re-checks).
    handoffs_elided: Cell<u64>,
    /// Barrier arrivals.
    barrier_arrivals: Cell<u64>,
    /// Holder of the chip-wide irrevocable token (INV-11: at most one).
    irrevocable: Cell<Option<usize>>,
}

impl Scheduler {
    /// Scheduler for `n` simulated cores.
    pub fn new(n: usize) -> Self {
        Scheduler {
            state: RefCell::new(State {
                queue: BinaryHeap::new(),
                handoff: None,
                barrier_waiters: Vec::new(),
                release_time: vec![0; n],
                finished: 0,
                n,
            }),
            horizon: Cell::new(HORIZON_OPEN),
            handoffs_taken: Cell::new(0),
            handoffs_elided: Cell::new(0),
            barrier_arrivals: Cell::new(0),
            irrevocable: Cell::new(None),
        }
    }

    /// Try to claim the chip-wide irrevocable token for `tid`. Succeeds
    /// when the token is free or already held by `tid`; a starving
    /// transaction spins (in simulated time) on this until the current
    /// owner commits and releases.
    pub fn try_acquire_irrevocable(&self, tid: usize) -> bool {
        match self.irrevocable.get() {
            None => {
                self.irrevocable.set(Some(tid));
                true
            }
            Some(t) => t == tid,
        }
    }

    /// Release the irrevocable token (called after the irrevocable
    /// transaction commits).
    pub fn release_irrevocable(&self, tid: usize) {
        debug_assert_eq!(self.irrevocable.get(), Some(tid), "releasing a token not held");
        if self.irrevocable.get() == Some(tid) {
            self.irrevocable.set(None);
        }
    }

    /// Current irrevocable-token owner, if any (tests/diagnostics).
    pub fn irrevocable_owner(&self) -> Option<usize> {
        self.irrevocable.get()
    }

    /// Baton passes so far (deterministic, since the schedule is).
    pub fn handoffs_taken(&self) -> u64 {
        self.handoffs_taken.get()
    }

    /// Syncs resolved without a baton pass (deterministic too).
    pub fn handoffs_elided(&self) -> u64 {
        self.handoffs_elided.get()
    }

    /// Barrier arrivals so far.
    pub fn barrier_arrivals(&self) -> u64 {
        self.barrier_arrivals.get()
    }

    /// Number of cores.
    pub fn n(&self) -> usize {
        self.state.borrow().n
    }

    /// Seed the run queue with all cores at time 0 and pick the first to
    /// run (core 0, by the id tie-break). Called once by the executor.
    pub fn start(&self) -> usize {
        let mut g = self.state.borrow_mut();
        for tid in 0..g.n {
            g.queue.push(Reverse(pack(0, tid)));
        }
        let first = id_of(g.queue.pop().expect("non-empty").0);
        self.horizon.set(g.horizon());
        first
    }

    /// Lock-free check: is `(t, tid)` still at or before the earliest
    /// other runnable core? Exact (not conservative) — the running core
    /// is never in the queue, so the cached horizon *is* the queue head.
    ///
    /// Deliberately does *not* count the elision: callers on the hot
    /// path (`ThreadCtx`) keep a plain local tally and deposit it once
    /// via [`Scheduler::credit_elided`].
    #[inline]
    pub fn fast_path(&self, tid: usize, t: Cycle) -> bool {
        pack(t, tid) <= self.horizon.get()
    }

    /// Fold a batch of locally-counted fast-path elisions into the
    /// shared counter (called once per core, not per sync).
    pub fn credit_elided(&self, n: u64) {
        self.handoffs_elided.set(self.handoffs_elided.get() + n);
    }

    /// Slow path of a sync: decide against the queue whether to yield.
    /// Returns `false` when the caller is still the global minimum (it
    /// keeps running); on `true` the caller took the queue head's place
    /// and must suspend — the executor then runs the displaced head via
    /// [`Scheduler::dispatch`].
    pub fn yield_decision(&self, tid: usize, t: Cycle) -> bool {
        let key = pack(t, tid);
        let mut g = self.state.borrow_mut();
        let next = {
            let Some(mut head) = g.queue.peek_mut() else {
                return false; // nobody else runnable: keep going
            };
            if key <= head.0 {
                return false; // still the minimum
            }
            // Dropping the guard sifts the caller down from the top.
            id_of(std::mem::replace(&mut head.0, key))
        };
        g.handoff = Some(next);
        self.handoffs_taken.set(self.handoffs_taken.get() + 1);
        true
    }

    /// Take the next core to run and refresh the horizon. Called by the
    /// executor after a core suspends: a yielding core left the head it
    /// displaced, a barrier-blocked core left a runnable sibling in the
    /// queue.
    pub fn dispatch(&self) -> usize {
        let mut g = self.state.borrow_mut();
        let next = match g.handoff.take() {
            Some(next) => next,
            None => id_of(g.queue.pop().expect("suspended core left no successor").0),
        };
        self.horizon.set(g.horizon());
        next
    }

    /// Barrier arrival: move `tid` to the waiter list, releasing everyone
    /// at the latest arrival time if it is the last. Returns `true` when
    /// `tid` itself is the next core to run (the release put it back at
    /// the queue head) — the caller keeps the baton and must *not*
    /// suspend. Otherwise the caller suspends and reads
    /// [`Scheduler::barrier_release_time`] on resume.
    pub fn barrier_arrive(&self, tid: usize, t: Cycle) -> bool {
        self.barrier_arrivals.set(self.barrier_arrivals.get() + 1);
        let mut g = self.state.borrow_mut();
        g.barrier_waiters.push((tid, t));
        if g.barrier_waiters.len() + g.finished == g.n {
            g.release_barrier();
        }
        match g.queue.peek() {
            Some(Reverse(key)) if id_of(*key) == tid => {
                g.queue.pop();
                self.horizon.set(g.horizon());
                true
            }
            Some(_) => {
                self.handoffs_taken.set(self.handoffs_taken.get() + 1);
                false
            }
            None => unreachable!("barrier with no runnable core and waiters pending"),
        }
    }

    /// The time the last barrier released `tid` at.
    pub fn barrier_release_time(&self, tid: usize) -> Cycle {
        self.state.borrow().release_time[tid]
    }

    /// Mark this core finished and pick who runs next, if anyone. Called
    /// by the executor when a core's coroutine returns `Ready`; `None`
    /// means the whole cell is done.
    pub fn finish_core(&self, tid: usize) -> Option<usize> {
        let mut g = self.state.borrow_mut();
        g.finished += 1;
        if !g.barrier_waiters.is_empty() && g.barrier_waiters.len() + g.finished == g.n {
            g.release_barrier();
        }
        let next = g.queue.pop().map(|Reverse(key)| id_of(key));
        self.horizon.set(g.horizon());
        if let Some(next) = next {
            debug_assert_ne!(next, tid, "finished core re-dispatched");
            self.handoffs_taken.set(self.handoffs_taken.get() + 1);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One step of a scripted core: spend cycles then sync, or arrive at
    /// the program barrier.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Work(u64),
        Barrier,
    }

    /// The scheduler API the executor + `ThreadCtx` pair drives, so the
    /// same harness runs the real scheduler and the reference one.
    trait Sched {
        fn start(&mut self) -> usize;
        fn fast_path(&self, tid: usize, t: Cycle) -> bool;
        fn credit_elided(&mut self, n: u64);
        fn yield_decision(&mut self, tid: usize, t: Cycle) -> bool;
        fn dispatch(&mut self) -> usize;
        fn barrier_arrive(&mut self, tid: usize, t: Cycle) -> bool;
        fn barrier_release_time(&self, tid: usize) -> Cycle;
        fn finish_core(&mut self, tid: usize) -> Option<usize>;
        fn counters(&self) -> (u64, u64, u64);
    }

    impl Sched for Scheduler {
        fn start(&mut self) -> usize {
            Scheduler::start(self)
        }
        fn fast_path(&self, tid: usize, t: Cycle) -> bool {
            Scheduler::fast_path(self, tid, t)
        }
        fn credit_elided(&mut self, n: u64) {
            Scheduler::credit_elided(self, n);
        }
        fn yield_decision(&mut self, tid: usize, t: Cycle) -> bool {
            Scheduler::yield_decision(self, tid, t)
        }
        fn dispatch(&mut self) -> usize {
            Scheduler::dispatch(self)
        }
        fn barrier_arrive(&mut self, tid: usize, t: Cycle) -> bool {
            Scheduler::barrier_arrive(self, tid, t)
        }
        fn barrier_release_time(&self, tid: usize) -> Cycle {
            Scheduler::barrier_release_time(self, tid)
        }
        fn finish_core(&mut self, tid: usize) -> Option<usize> {
            Scheduler::finish_core(self, tid)
        }
        fn counters(&self) -> (u64, u64, u64) {
            (self.handoffs_taken(), self.handoffs_elided(), self.barrier_arrivals())
        }
    }

    /// Reference copy of the push/pop discipline the swap-in-place yield
    /// replaced: a taken yield pushes the caller, dispatch pops the
    /// minimum. Kept only as the differential oracle for the real one.
    struct PushPop {
        queue: BinaryHeap<Reverse<(Cycle, usize)>>,
        waiters: Vec<(usize, Cycle)>,
        release_time: Vec<Cycle>,
        finished: usize,
        horizon: u64,
        taken: u64,
        elided: u64,
        arrivals: u64,
    }

    impl PushPop {
        fn new(n: usize) -> Self {
            PushPop {
                queue: BinaryHeap::new(),
                waiters: Vec::new(),
                release_time: vec![0; n],
                finished: 0,
                horizon: HORIZON_OPEN,
                taken: 0,
                elided: 0,
                arrivals: 0,
            }
        }
        fn refresh(&mut self) {
            self.horizon = self.queue.peek().map_or(HORIZON_OPEN, |Reverse((t, id))| pack(*t, *id));
        }
        fn release_if_all_arrived(&mut self) {
            if !self.waiters.is_empty()
                && self.waiters.len() + self.finished == self.release_time.len()
            {
                let tmax = self.waiters.iter().map(|(_, t)| *t).max().expect("non-empty");
                for (w, _) in std::mem::take(&mut self.waiters) {
                    self.release_time[w] = tmax;
                    self.queue.push(Reverse((tmax, w)));
                }
            }
        }
    }

    impl Sched for PushPop {
        fn start(&mut self) -> usize {
            for tid in 0..self.release_time.len() {
                self.queue.push(Reverse((0, tid)));
            }
            let first = self.queue.pop().expect("non-empty").0 .1;
            self.refresh();
            first
        }
        fn fast_path(&self, tid: usize, t: Cycle) -> bool {
            pack(t, tid) <= self.horizon
        }
        fn credit_elided(&mut self, n: u64) {
            self.elided += n;
        }
        fn yield_decision(&mut self, tid: usize, t: Cycle) -> bool {
            match self.queue.peek() {
                Some(Reverse(head)) if (t, tid) > *head => {
                    self.queue.push(Reverse((t, tid)));
                    self.taken += 1;
                    true
                }
                _ => false,
            }
        }
        fn dispatch(&mut self) -> usize {
            let next = self.queue.pop().expect("suspended core left no successor").0 .1;
            self.refresh();
            next
        }
        fn barrier_arrive(&mut self, tid: usize, t: Cycle) -> bool {
            self.arrivals += 1;
            self.waiters.push((tid, t));
            self.release_if_all_arrived();
            match self.queue.peek() {
                Some(Reverse((_, next))) if *next == tid => {
                    self.queue.pop();
                    self.refresh();
                    true
                }
                Some(_) => {
                    self.taken += 1;
                    false
                }
                None => unreachable!("barrier with no runnable core and waiters pending"),
            }
        }
        fn barrier_release_time(&self, tid: usize) -> Cycle {
            self.release_time[tid]
        }
        fn finish_core(&mut self, _tid: usize) -> Option<usize> {
            self.finished += 1;
            self.release_if_all_arrived();
            let next = self.queue.pop().map(|Reverse((_, id))| id);
            self.refresh();
            self.taken += u64::from(next.is_some());
            next
        }
        fn counters(&self) -> (u64, u64, u64) {
            (self.taken, self.elided, self.arrivals)
        }
    }

    /// Everything a harness run observes: the (time, id) order of
    /// completed syncs, the order cores were dispatched in, and each
    /// core's barrier release times.
    struct Observed {
        log: Vec<(u64, usize)>,
        dispatched: Vec<usize>,
        releases: Vec<Vec<Cycle>>,
    }

    fn drive(scripts: &[Vec<Step>]) -> (Vec<(u64, usize)>, Vec<Vec<Cycle>>, Scheduler) {
        let mut sched = Scheduler::new(scripts.len());
        let o = drive_with(&mut sched, scripts);
        (o.log, o.releases, sched)
    }

    /// Drive scripted cores through the raw scheduler API exactly the way
    /// the executor + `ThreadCtx` pair does: advance the clock, try the
    /// fast path, fall back to [`Scheduler::yield_decision`] /
    /// [`Scheduler::dispatch`], suspend at barriers, finish via
    /// [`Scheduler::finish_core`].
    fn drive_with<S: Sched>(sched: &mut S, scripts: &[Vec<Step>]) -> Observed {
        let n = scripts.len();
        let mut at: Vec<usize> = vec![0; n];
        let mut clock: Vec<u64> = vec![0; n];
        // A sync completes when the core next runs; a barrier updates the
        // clock to the release time when the core next runs.
        let mut pending_sync: Vec<Option<u64>> = vec![None; n];
        let mut pending_barrier: Vec<bool> = vec![false; n];
        let mut log = Vec::new();
        let mut releases: Vec<Vec<Cycle>> = vec![Vec::new(); n];
        let mut dispatched = Vec::new();
        let mut current = sched.start();
        'outer: loop {
            dispatched.push(current);
            if let Some(t) = pending_sync[current].take() {
                log.push((t, current));
            }
            if std::mem::take(&mut pending_barrier[current]) {
                let r = sched.barrier_release_time(current);
                clock[current] = r;
                releases[current].push(r);
            }
            loop {
                let Some(&step) = scripts[current].get(at[current]) else {
                    match sched.finish_core(current) {
                        Some(next) => {
                            current = next;
                            continue 'outer;
                        }
                        None => break 'outer,
                    }
                };
                at[current] += 1;
                match step {
                    Step::Work(dt) => {
                        clock[current] += dt;
                        let t = clock[current];
                        if sched.fast_path(current, t) {
                            sched.credit_elided(1);
                            log.push((t, current));
                        } else {
                            // The horizon is exact, so a failed fast path
                            // always yields.
                            assert!(
                                sched.yield_decision(current, t),
                                "core {current} at t={t}: stale horizon"
                            );
                            pending_sync[current] = Some(t);
                            current = sched.dispatch();
                            continue 'outer;
                        }
                    }
                    Step::Barrier => {
                        let t = clock[current];
                        if sched.barrier_arrive(current, t) {
                            let r = sched.barrier_release_time(current);
                            clock[current] = r;
                            releases[current].push(r);
                        } else {
                            pending_barrier[current] = true;
                            current = sched.dispatch();
                            continue 'outer;
                        }
                    }
                }
            }
        }
        Observed { log, dispatched, releases }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The swap-in-place yield is an exact replacement for push/pop:
        /// on random scripts (1..=16 cores, work steps including zero-cycle
        /// ties, barriers one step in nine, early finishes) the dispatch
        /// order, the sync log, every barrier release and every handoff
        /// counter match the reference.
        #[test]
        fn swap_in_place_matches_push_pop(scripts in proptest::collection::vec(
            proptest::collection::vec(
                (0u8..9, 0u64..24).prop_map(|(k, dt)| if k == 0 { Step::Barrier } else { Step::Work(dt) }),
                0..48,
            ),
            1..17,
        )) {
            let mut sched = Scheduler::new(scripts.len());
            let got = drive_with(&mut sched, &scripts);
            let mut reference = PushPop::new(scripts.len());
            let want = drive_with(&mut reference, &scripts);
            prop_assert_eq!(got.dispatched, want.dispatched);
            prop_assert_eq!(got.log, want.log);
            prop_assert_eq!(got.releases, want.releases);
            prop_assert_eq!(Sched::counters(&sched), reference.counters());
        }
    }

    /// Cores with interleaved clocks must observe a strictly time-ordered
    /// execution.
    #[test]
    fn global_time_order() {
        let n = 4;
        let scripts: Vec<Vec<Step>> = (0..n)
            .map(|tid| {
                (0..20u64).map(|step| Step::Work(1 + ((tid as u64 * 7 + step * 3) % 11))).collect()
            })
            .collect();
        let (log, _, sched) = drive(&scripts);
        assert_eq!(log.len(), n * 20);
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "events out of order: {:?} then {:?}", w[0], w[1]);
        }
        assert!(sched.handoffs_taken() > 0, "interleaved clocks must pass the baton");
        assert!(sched.handoffs_elided() > 0, "equal-clock stretches must elide");
    }

    #[test]
    fn deterministic_across_runs() {
        let scripts: Vec<Vec<Step>> = (0..3)
            .map(|tid| (0..30u64).map(|step| Step::Work(1 + ((tid as u64 + step) % 5))).collect())
            .collect();
        let (log_a, _, sched_a) = drive(&scripts);
        let (log_b, _, sched_b) = drive(&scripts);
        assert_eq!(log_a, log_b, "scheduler must be deterministic");
        assert_eq!(
            (sched_a.handoffs_taken(), sched_a.handoffs_elided()),
            (sched_b.handoffs_taken(), sched_b.handoffs_elided()),
            "handoff counts must be deterministic"
        );
    }

    #[test]
    fn barrier_synchronizes_to_max_time() {
        let n = 4;
        // Arrive at 100..400; everyone must release at 400.
        let scripts: Vec<Vec<Step>> =
            (0..n).map(|tid| vec![Step::Work(100 * (tid as u64 + 1)), Step::Barrier]).collect();
        let (_, releases, sched) = drive(&scripts);
        for (tid, r) in releases.iter().enumerate() {
            assert_eq!(r, &vec![400], "core {tid} must release at max arrival");
        }
        assert_eq!(sched.barrier_arrivals(), n as u64);
    }

    #[test]
    fn consecutive_barriers_do_not_cross_talk() {
        // First barrier releases at 30; second arrivals are 35/40/45.
        let scripts: Vec<Vec<Step>> = (0..3)
            .map(|tid| {
                vec![
                    Step::Work(10 * (tid as u64 + 1)),
                    Step::Barrier,
                    Step::Work(5 * (tid as u64 + 1)),
                    Step::Barrier,
                ]
            })
            .collect();
        let (_, releases, _) = drive(&scripts);
        for (tid, r) in releases.iter().enumerate() {
            assert_eq!(r, &vec![30, 45], "core {tid}");
        }
    }

    #[test]
    fn finished_threads_do_not_block_barrier() {
        // Core 2 finishes without ever reaching the barrier; the two
        // arrivers must still release.
        let scripts =
            vec![vec![Step::Work(10), Step::Barrier], vec![Step::Work(11), Step::Barrier], vec![]];
        let (_, releases, _) = drive(&scripts);
        assert_eq!(releases[0], vec![11]);
        assert_eq!(releases[1], vec![11]);
        assert!(releases[2].is_empty());
    }

    /// A lone core (or one far behind the pack) must never touch the run
    /// queue: every sync resolves on the horizon fast path.
    #[test]
    fn single_thread_syncs_are_all_elided() {
        let sched = Scheduler::new(1);
        let first = sched.start();
        assert_eq!(first, 0);
        for t in 1..=1000u64 {
            assert!(sched.fast_path(0, t), "t={t}: lone core must stay on the fast path");
            sched.credit_elided(1);
        }
        assert_eq!(sched.finish_core(0), None);
        assert_eq!(sched.handoffs_taken(), 0);
        assert_eq!(sched.handoffs_elided(), 1000);
    }

    /// The irrevocable token admits at most one owner and is reentrant
    /// for that owner (INV-11).
    #[test]
    fn irrevocable_token_single_owner() {
        let sched = Scheduler::new(4);
        assert_eq!(sched.irrevocable_owner(), None);
        assert!(sched.try_acquire_irrevocable(2));
        assert!(sched.try_acquire_irrevocable(2), "owner re-acquires freely");
        assert!(!sched.try_acquire_irrevocable(0), "second claimant must wait");
        assert_eq!(sched.irrevocable_owner(), Some(2));
        sched.release_irrevocable(2);
        assert_eq!(sched.irrevocable_owner(), None);
        assert!(sched.try_acquire_irrevocable(0), "token free after release");
        sched.release_irrevocable(0);
    }

    /// The packed horizon must order exactly like (time, id) tuples,
    /// including the id tie-break.
    #[test]
    fn packed_horizon_orders_like_tuples() {
        let pts = [(0u64, 0usize), (0, 1), (1, 0), (1, 63), (2, 0), (50_000_000_000, 63)];
        for &a in &pts {
            for &b in &pts {
                assert_eq!(pack(a.0, a.1) <= pack(b.0, b.1), a <= b, "{a:?} vs {b:?}");
            }
        }
    }

    /// The running core is never in the queue, so the horizon a core
    /// observes is exactly the earliest *other* runnable core — and a
    /// yield decision that pushes the core back re-derives the same head
    /// the fast path saw.
    #[test]
    fn fast_path_agrees_with_yield_decision() {
        let sched = Scheduler::new(2);
        let first = sched.start();
        assert_eq!(first, 0, "id tie-break at t=0");
        // Core 1 is queued at t=0: core 0 at t=0 ties and keeps running
        // (id tie-break), at t=1 it must yield.
        assert!(sched.fast_path(0, 0));
        assert!(!sched.fast_path(0, 1));
        assert!(sched.yield_decision(0, 1));
        assert_eq!(sched.dispatch(), 1);
        // Now core 0 is queued at t=1: core 1 runs while strictly earlier
        // but loses the id tie-break at t=1.
        assert!(sched.fast_path(1, 0));
        assert!(!sched.fast_path(1, 1), "id 1 loses the tie against queued id 0");
        assert_eq!(sched.handoffs_taken(), 1);
    }
}
