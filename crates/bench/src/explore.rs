//! Deterministic concurrent-schedule exploration with crash injection.
//!
//! The crash sweep ([`crate::sweep`]) proves every *single-threaded* crash
//! point recovers; this module attacks the other axis: genuinely concurrent
//! executions. It runs N real OS threads against one structure but
//! *serializes* them into a deterministic interleaving — a **schedule** —
//! and checks that the per-thread responses (plus a post-run observation
//! phase) form a linearizable history of the structure's [`linearize`]
//! specification. Optionally it crashes the whole system at a chosen event
//! of a chosen schedule and verifies the recovered responses still
//! linearize.
//!
//! ## How a schedule is executed
//!
//! Every instrumented pool event (`load`/`store`/`cas`/`pwb`/`pfence`/
//! `psync`) is a *yield point*: with the pool's scheduler bit set
//! ([`pmem::PmemPool::set_sched_enabled`]), each event first invokes the
//! executing thread's [`pmem::set_yield_hook`] hook. Each worker's hook
//! calls into a shared scheduler monitor (`Sched`): a mutex/condvar *turn* that exactly one
//! worker holds at a time. A worker only runs while it holds the turn; at
//! every yield point the exploration strategy picks who executes the next
//! event, and the turn is handed over (or kept). The result is a serial
//! event order that is a deterministic function of `(strategy, seed,
//! schedule index)` — re-running the same triple replays the identical
//! interleaving, which is what makes crash points addressable.
//!
//! Because the yield points ride the same slow path as the
//! [`pmem::CrashCtl`] tick (hook first, then tick), a crash-free run of a
//! schedule counts its events `E`, and any `k < E` can then be armed with
//! [`pmem::CrashCtl::arm_after`] to crash that same schedule
//! deterministically. For the lock-free subjects event index and tick
//! index coincide exactly; a blocking subject's wait loops (Romulus) add
//! extra ticks between events, so `k` names "the k-th tick of this
//! schedule's serial execution" — still a fixed, replayable point, since
//! the wait-loop iteration counts are themselves deterministic under the
//! turn protocol, and still dense in the schedule (`k < E ≤ total
//! ticks`, so every armed crash fires). The crash unwinds the unlucky worker, which broadcasts
//! ([`pmem::CrashCtl::raise`]) so every other worker crashes at its next
//! event — a full-system power failure, as the paper models it. The driver
//! then resolves the crash model, runs each crashed thread's `recover`
//! entry point (sequentially, as a restarted system would), and feeds all
//! completed + recovered operations with their original invocation stamps
//! to the structure subject's concurrent verdict
//! ([`crate::subject::Subject::concurrent_verdict`]).
//!
//! ## Strategies
//!
//! * **round-robin** — strict alternation among live threads: maximal
//!   fine-grained interleaving, the densest overlap structure.
//! * **random** — each decision picks a live thread uniformly from a
//!   seeded deterministic generator: unbiased coverage of the
//!   interleaving space.
//! * **pct** — PCT-style priority schedules (Burckhardt et al., ASPLOS
//!   '10): threads get shuffled priorities, the highest-priority live
//!   thread always runs, and at `d−1` seeded *change points* (event
//!   indices in a calibrated horizon) the current leader is demoted to
//!   the bottom. Finds bugs that need long undisturbed runs punctuated
//!   by a context switch at one precise spot.
//!
//! Progress: the lock-free structures complete the granted thread's
//! operation in finitely many events even if every other thread stays
//! parked, so schedules terminate on events alone. Blocking subjects
//! (Romulus: an OS writer mutex plus seqlock reader spins) additionally
//! route their busy-wait loops through the *spin channel*
//! ([`pmem::set_spin_hook`] / [`pmem::yield_spin`]): a waiter that cannot
//! proceed hands the turn back via `Sched::spin_point`, which — unlike a
//! yield point — does **not** advance the event count or the crash
//! countdown (wait-loop iteration counts are scheduling artifacts, and
//! counting them would desynchronize crash-point indexing between a count
//! run and its replays). Under PCT the spinner is demoted exactly like a
//! change-point demotion, so the lock holder it waits on becomes the
//! leader and runs to release. A fuel counter on events and a second one
//! on spins abort the run loudly if either termination assumption is
//! violated.
//!
//! The `explore` binary drives this engine over the structure × algorithm ×
//! strategy matrix and writes one CSV per pair under `results/explore/`.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use linearize::Spec;
use pmem::{run_crashable, PmemPool, PoolCfg, PoolSnapshot, SiteId, ThreadCtx};

use crate::adapter::{AlgoKind, StructureKind};
use crate::csv::Csv;
use crate::registry::{self, Dims, Engine};
use crate::subject::{splitmix64, CompletedOp, OpOf, Rng, ScriptFor, Subject, SET_KEYS};
use crate::sweep::{csv_escape, AdversaryKind};

// --------------------------------------------------------------- strategies

/// A schedule-exploration strategy (see the module docs for what each
/// one is good at).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StrategyKind {
    /// Strict alternation among live threads.
    RoundRobin,
    /// Uniform seeded-random choice per decision.
    Random,
    /// PCT-style priority schedules with seeded change points.
    Pct,
}

impl StrategyKind {
    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<StrategyKind> {
        Some(match s {
            "rr" | "round-robin" => StrategyKind::RoundRobin,
            "random" => StrategyKind::Random,
            "pct" => StrategyKind::Pct,
            _ => return None,
        })
    }

    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::RoundRobin => "round-robin",
            StrategyKind::Random => "random",
            StrategyKind::Pct => "pct",
        }
    }

    /// Every strategy, in matrix order.
    pub fn all() -> [StrategyKind; 3] {
        [
            StrategyKind::RoundRobin,
            StrategyKind::Random,
            StrategyKind::Pct,
        ]
    }
}

/// PCT safety valve: if the leader is picked this many consecutive times
/// while others are live, it is demoted anyway. With lock-free subjects a
/// leader retires long before this; the guard only matters if a future
/// subject violates the progress assumption.
const PCT_MAX_BURST: u64 = 100_000;

/// Number of PCT change points (`d − 1` for bug depth `d = 3`).
const PCT_CHANGE_POINTS: usize = 2;

/// One instantiated strategy: the deterministic decision function of a
/// single schedule. `pick` is called once per scheduling decision and must
/// return a live thread.
enum Strategy {
    RoundRobin {
        last: usize,
    },
    Random {
        rng: Rng,
    },
    Pct {
        /// Priority per thread; higher runs. Demotions assign values from
        /// `floor` downward so the demoted thread ranks below everyone.
        prio: Vec<i64>,
        floor: i64,
        /// Ascending event indices at which the current leader is demoted.
        change: Vec<u64>,
        next_change: usize,
        burst: u64,
        last: usize,
    },
}

impl Strategy {
    fn new(kind: StrategyKind, n: usize, seed: u64, horizon: u64) -> Strategy {
        match kind {
            StrategyKind::RoundRobin => Strategy::RoundRobin { last: n - 1 },
            StrategyKind::Random => Strategy::Random {
                rng: Rng(splitmix64(seed) | 1),
            },
            StrategyKind::Pct => {
                let mut rng = Rng(splitmix64(seed) | 1);
                // Fisher–Yates shuffle of the priorities 1..=n.
                let mut prio: Vec<i64> = (1..=n as i64).collect();
                for i in (1..n).rev() {
                    let j = (rng.next() % (i as u64 + 1)) as usize;
                    prio.swap(i, j);
                }
                let h = horizon.max(16);
                let mut change: Vec<u64> = (0..PCT_CHANGE_POINTS).map(|_| rng.next() % h).collect();
                change.sort_unstable();
                Strategy::Pct {
                    prio,
                    floor: 0,
                    change,
                    next_change: 0,
                    burst: 0,
                    last: usize::MAX,
                }
            }
        }
    }

    /// Picks the thread that executes the next event. `alive` has at least
    /// one live entry; `events` counts the events executed so far.
    fn pick(&mut self, alive: &[bool], events: u64) -> usize {
        debug_assert!(alive.iter().any(|&a| a));
        match self {
            Strategy::RoundRobin { last } => {
                let n = alive.len();
                let mut i = (*last + 1) % n;
                while !alive[i] {
                    i = (i + 1) % n;
                }
                *last = i;
                i
            }
            Strategy::Random { rng } => {
                let live: Vec<usize> = (0..alive.len()).filter(|&i| alive[i]).collect();
                live[(rng.next() % live.len() as u64) as usize]
            }
            Strategy::Pct {
                prio,
                floor,
                change,
                next_change,
                burst,
                last,
            } => {
                let leader = |prio: &[i64]| {
                    (0..alive.len())
                        .filter(|&i| alive[i])
                        .max_by_key(|&i| prio[i])
                        .unwrap()
                };
                while *next_change < change.len() && events >= change[*next_change] {
                    let cur = leader(prio);
                    *floor -= 1;
                    prio[cur] = *floor;
                    *next_change += 1;
                }
                let mut cur = leader(prio);
                if cur == *last {
                    *burst += 1;
                    if *burst > PCT_MAX_BURST && alive.iter().filter(|&&a| a).count() > 1 {
                        *floor -= 1;
                        prio[cur] = *floor;
                        *burst = 0;
                        cur = leader(prio);
                    }
                } else {
                    *burst = 0;
                }
                *last = cur;
                cur
            }
        }
    }

    /// Demotes thread `t` below every other priority. Only PCT carries
    /// priorities; the memoryless strategies need no demotion for spin
    /// progress (round-robin rotates past the spinner by construction,
    /// random picks every live thread with positive probability). Called
    /// from [`Sched::spin_point`] so a busy-waiting PCT leader stops being
    /// re-picked forever while the thread it waits on stays parked.
    fn demote(&mut self, t: usize) {
        if let Strategy::Pct {
            prio, floor, burst, ..
        } = self
        {
            *floor -= 1;
            prio[t] = *floor;
            *burst = 0;
        }
    }
}

// ---------------------------------------------------------------- scheduler

/// Sentinel for "nobody holds the turn" (pre-launch / all retired).
const NOBODY: usize = usize::MAX;

struct SchedSt {
    started: bool,
    /// The virtual thread currently allowed to run.
    granted: usize,
    alive: Vec<bool>,
    live: usize,
    /// Events executed so far (== crash-countdown ticks in a crash-free
    /// run of a lock-free subject: the hook and the tick ride the same
    /// instrumented slow path; blocking subjects add extra ticks from
    /// their wait loops, which stay deterministic under the turn
    /// protocol).
    events: u64,
    /// Spin yields taken so far (see [`Sched::spin_point`]) — bounded by
    /// its own backstop, never mixed into `events`.
    spins: u64,
    fuel: u64,
    abort: bool,
    strategy: Strategy,
}

/// The cooperative turn: a mutex/condvar protocol serializing N workers
/// into one deterministic event order. Exactly one worker holds the turn;
/// it runs until its next yield point, where the strategy decides who
/// executes the next event.
struct Sched {
    st: Mutex<SchedSt>,
    cv: Condvar,
}

impl Sched {
    fn new(n: usize, strategy: Strategy, fuel: u64) -> Sched {
        Sched {
            st: Mutex::new(SchedSt {
                started: false,
                granted: NOBODY,
                alive: vec![true; n],
                live: n,
                events: 0,
                spins: 0,
                fuel,
                abort: false,
                strategy,
            }),
            cv: Condvar::new(),
        }
    }

    /// Poison-tolerant lock: an aborting worker panics while holding the
    /// mutex, and everyone else must still be able to observe the abort.
    fn lock(&self) -> std::sync::MutexGuard<'_, SchedSt> {
        self.st.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(
        &self,
        g: std::sync::MutexGuard<'a, SchedSt>,
    ) -> std::sync::MutexGuard<'a, SchedSt> {
        self.cv.wait(g).unwrap_or_else(|e| e.into_inner())
    }

    /// Opens the start gate and grants the strategy's first pick. Called by
    /// the driver after every worker has been spawned.
    fn launch(&self) {
        let mut st = self.lock();
        st.started = true;
        let st = &mut *st;
        st.granted = st.strategy.pick(&st.alive, st.events);
        self.cv.notify_all();
    }

    /// Blocks the worker until the exploration has launched *and* it holds
    /// the turn. Workers call this before touching the pool, so nothing —
    /// not even a clock stamp — executes outside the serial order.
    fn gate(&self, me: usize) {
        let mut st = self.lock();
        while !(st.started && st.granted == me) {
            if st.abort {
                drop(st);
                panic!("schedule explorer aborted");
            }
            st = self.wait(st);
        }
    }

    /// The yield point: called (via the thread's yield hook) immediately
    /// before each of the worker's instrumented events. Decides who
    /// executes the next event, hands the turn over if it is someone else,
    /// and blocks until the turn comes back. On return the caller owns the
    /// event it is about to execute.
    fn yield_point(&self, me: usize) {
        let mut st = self.lock();
        debug_assert_eq!(st.granted, me, "only the turn holder reaches a yield point");
        let next = {
            let st = &mut *st;
            st.strategy.pick(&st.alive, st.events)
        };
        let mut st = self.hand_over(st, me, next);
        st.events += 1;
        if st.events >= st.fuel {
            st.abort = true;
            self.cv.notify_all();
            let fuel = st.fuel;
            drop(st);
            panic!(
                "schedule explorer: fuel exhausted after {fuel} events — \
                 a subject violated the lock-free progress assumption"
            );
        }
    }

    /// The *spin* point: called (via the thread's spin hook) from a
    /// busy-wait loop in a blocking subject — the spinner cannot proceed
    /// until another thread runs, so it releases the turn and blocks until
    /// it is granted again. Crucially this is **not** an instrumented pool
    /// event: `events` does not advance (a spin count is a scheduling
    /// artifact; counting it would desynchronize crash-point indexing
    /// between a count run and its crash replays) and the crash countdown
    /// is not ticked here (the subject's wait loop ticks it itself, after
    /// the yield, so a raised system-wide crash still stops the spinner).
    ///
    /// The spinner is demoted under PCT before the next pick — otherwise a
    /// spinning leader is re-picked forever and the thread it waits on
    /// never runs. A separate spin backstop aborts if the wait never
    /// resolves (a genuine deadlock: with every worker either retired or
    /// unable to release what the spinner waits on, no pick can help).
    fn spin_point(&self, me: usize) {
        let mut st = self.lock();
        debug_assert_eq!(st.granted, me, "only the turn holder reaches a spin point");
        st.spins += 1;
        if st.spins >= st.fuel {
            st.abort = true;
            self.cv.notify_all();
            let fuel = st.fuel;
            drop(st);
            panic!(
                "schedule explorer: spin backstop exhausted after {fuel} spin yields — \
                 a blocked subject never unblocked (deadlock under the explored schedule)"
            );
        }
        let next = {
            let st = &mut *st;
            st.strategy.demote(me);
            st.strategy.pick(&st.alive, st.events)
        };
        drop(self.hand_over(st, me, next));
    }

    /// Grants the turn to `next` (unless that is `me`) and blocks until it
    /// comes back to `me`; panics if the exploration aborted meanwhile.
    fn hand_over<'a>(
        &self,
        mut st: std::sync::MutexGuard<'a, SchedSt>,
        me: usize,
        next: usize,
    ) -> std::sync::MutexGuard<'a, SchedSt> {
        if next != me {
            st.granted = next;
            self.cv.notify_all();
            while st.granted != me && !st.abort {
                st = self.wait(st);
            }
        }
        if st.abort {
            drop(st);
            panic!("schedule explorer aborted");
        }
        st
    }

    /// Removes the worker from the schedule (script finished or crash
    /// unwound) and hands the turn to the strategy's next pick, cascading
    /// until every worker has retired.
    fn retire(&self, me: usize) {
        let mut st = self.lock();
        if st.alive[me] {
            st.alive[me] = false;
            st.live -= 1;
        }
        if st.granted == me {
            st.granted = if st.live == 0 {
                NOBODY
            } else {
                let st = &mut *st;
                st.strategy.pick(&st.alive, st.events)
            };
        }
        self.cv.notify_all();
    }

    fn events(&self) -> u64 {
        self.lock().events
    }
}

// ------------------------------------------------------------- per-run data

/// How crash injection is applied to explored schedules.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// Crash-free exploration only.
    Off,
    /// After each clean schedule run, re-run it with a crash armed at each
    /// of up to `per_schedule` distinct seeded event indices.
    Sampled {
        /// Crash points injected per explored schedule.
        per_schedule: u64,
    },
}

/// Configuration of one exploration (one structure × algorithm pair).
#[derive(Clone, Debug)]
pub struct ExploreCfg {
    /// Which structure shape to explore.
    pub structure: StructureKind,
    /// Which implementation; `(structure, algo)` must be a pair of the
    /// [`crate::registry`].
    pub algo: AlgoKind,
    /// Virtual threads per schedule (≥ 2).
    pub threads: usize,
    /// Scripted operations per thread.
    pub ops_per_thread: usize,
    /// Schedules explored per strategy.
    pub schedules: u64,
    /// Strategies to run.
    pub strategies: Vec<StrategyKind>,
    /// Crash injection mode.
    pub crash: CrashMode,
    /// Crash adversary for injected crashes.
    pub adversary: AdversaryKind,
    /// Seed for scripts, strategies, and crash sampling.
    pub seed: u64,
    /// This shard's index in `[0, shard_count)`.
    pub shard_index: u64,
    /// Number of shards splitting the (strategy, schedule) grid.
    pub shard_count: u64,
    /// Pool size.
    pub pool_bytes: usize,
    /// Abort backstop: maximum events per schedule run.
    pub fuel: u64,
    /// Build the pool with the recoverable free-list allocator
    /// ([`pmem::PoolCfg::reclaim`]): structures retire removed nodes,
    /// recovery runs [`PmemPool::recover_allocator`] before structure
    /// recovery, the end of every schedule drains limbo (a quiescent
    /// point), and every verdict additionally audits the allocator's lists.
    /// Default `false`.
    pub reclaim: bool,
}

impl ExploreCfg {
    /// Defaults for a pair: 2 threads × 4 ops, 4 schedules per strategy,
    /// all three strategies, sampled crash injection.
    pub fn new(structure: StructureKind, algo: AlgoKind) -> ExploreCfg {
        ExploreCfg {
            structure,
            algo,
            threads: 2,
            ops_per_thread: 4,
            schedules: 4,
            strategies: StrategyKind::all().to_vec(),
            crash: CrashMode::Sampled { per_schedule: 2 },
            adversary: AdversaryKind::Pessimist,
            seed: 0xDE7E_C7AB,
            shard_index: 0,
            shard_count: 1,
            pool_bytes: 64 << 20,
            fuel: 5_000_000,
            reclaim: false,
        }
    }
}

/// Outcome of one executed schedule (crash-free or crash-injected).
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Strategy that generated the schedule.
    pub strategy: StrategyKind,
    /// Schedule index within the strategy.
    pub schedule: u64,
    /// Armed crash point, if any.
    pub crash_k: Option<u64>,
    /// Instrumented events executed (before the crash, if one fired).
    pub events: u64,
    /// Completed + recovered operations fed to the verdict.
    pub ops_recorded: usize,
    /// Virtual threads whose in-flight operation was crash-interrupted.
    pub crashed_threads: usize,
    /// Did the history linearize and the structure pass its invariants?
    pub ok: bool,
    /// A worker panicked with the pool's exhaustion message: a capacity
    /// problem, not a schedule finding. `note` carries the actionable
    /// message and `ok` is `false`.
    pub exhausted: bool,
    /// Failure detail (empty when the run passed).
    pub note: String,
}

/// Result of one full exploration.
pub struct ExploreReport {
    /// The configuration that produced this report.
    pub cfg: ExploreCfg,
    /// Crash-free schedule runs executed.
    pub runs: u64,
    /// Schedule runs skipped by sharding.
    pub runs_skipped: u64,
    /// Crash-injected runs executed.
    pub crash_runs: u64,
    /// Total events across all executed runs.
    pub total_events: u64,
    /// Every failing run.
    pub violations: Vec<RunOutcome>,
    /// Per-run CSV (one row per executed run).
    pub csv: Csv,
}

impl ExploreReport {
    /// Did every executed run pass?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line console summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<9} {:<22} t={} runs={:<4} crash-runs={:<4} skipped={:<3} events={:<7} violations={} {}",
            self.cfg.structure.name(),
            self.cfg.algo.name(),
            self.cfg.threads,
            self.runs,
            self.crash_runs,
            self.runs_skipped,
            self.total_events,
            self.violations.len(),
            if self.ok() { "OK" } else { "FAIL" },
        )
    }
}

// ------------------------------------------------------------------ engine

/// What a worker knows about its crash-interrupted operation, harvested
/// after the unwind for the recovery phase.
#[derive(Copy, Clone)]
struct CrashedOp {
    op_index: usize,
    /// Did the crash land after `begin_op`'s `CP_q := 0` prologue? Recovery
    /// functions are only defined past the prologue (see `sweep` docs);
    /// before it, the system re-invokes from scratch.
    past_prologue: bool,
    /// Invocation stamp taken when the operation was invoked — the
    /// recovered response keeps it, so its interval genuinely spans the
    /// crash.
    inv: u64,
}

/// Everything one worker hands back to the driver.
struct WorkerOut<S: Spec> {
    tid: usize,
    done: Vec<CompletedOp<S>>,
    crashed: Option<CrashedOp>,
    /// A panic other than the injected [`pmem::CrashPoint`] (pool
    /// exhaustion, assertion failure). Harvested — not propagated — so the
    /// worker still retires from the scheduler and the sibling workers,
    /// cascaded into crashing, can be joined; the driver classifies it.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One worker's scripted run: gate on the scheduler, execute the script
/// serially under the turn protocol, harvest the in-flight op if a crash
/// unwinds it.
fn worker_body<Sub: Subject>(
    me: usize,
    sched: &Arc<Sched>,
    clock: &AtomicU64,
    sub: &Sub,
    ctx: &ThreadCtx,
    script: &[OpOf<Sub>],
) -> WorkerOut<Sub::S> {
    let hook_sched = sched.clone();
    pmem::set_yield_hook(Box::new(move || hook_sched.yield_point(me)));
    let spin_sched = sched.clone();
    pmem::set_spin_hook(Box::new(move || spin_sched.spin_point(me)));
    sched.gate(me);
    let done: RefCell<Vec<CompletedOp<Sub::S>>> = RefCell::new(Vec::new());
    let cur = Cell::new(CrashedOp {
        op_index: 0,
        past_prologue: false,
        inv: 0,
    });
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_crashable(|| {
            for (i, op) in script.iter().enumerate() {
                // All stamps are taken while holding the turn, so the shared
                // clock's order is exactly the serial order of the schedule.
                let inv = clock.fetch_add(1, Ordering::Relaxed);
                cur.set(CrashedOp {
                    op_index: i,
                    past_prologue: false,
                    inv,
                });
                ctx.begin_op(SiteId(0));
                cur.set(CrashedOp {
                    op_index: i,
                    past_prologue: true,
                    inv,
                });
                let ret = sub.exec(ctx, op);
                let res = clock.fetch_add(1, Ordering::Relaxed);
                done.borrow_mut().push(CompletedOp {
                    tid: me,
                    op: op.clone(),
                    ret,
                    inv,
                    res,
                });
            }
        })
    }));
    pmem::clear_yield_hook();
    pmem::clear_spin_hook();
    // Any abnormal exit — the injected crash or a harvested panic — raises
    // the cascade: every other worker crashes at its next instrumented
    // event, so nobody waits forever on a turn this worker will never take.
    // Idempotent across the cascade.
    let (crashed, panic) = match out {
        Ok(Some(())) => (None, None),
        Ok(None) => {
            ctx.pool().crash_ctl().raise();
            (Some(cur.get()), None)
        }
        Err(p) => {
            ctx.pool().crash_ctl().raise();
            (Some(cur.get()), Some(p))
        }
    };
    sched.retire(me);
    WorkerOut {
        tid: me,
        done: done.into_inner(),
        crashed,
        panic,
    }
}

/// The attach-once exploration context: pool, subject, and per-thread
/// contexts are built once; every schedule run rewinds the pool to the
/// `base` snapshot ([`PmemPool::restore`] re-arms the crash model and
/// leaves the scheduler bit alone).
struct ExpRunner<Sub: Subject> {
    pool: Arc<PmemPool>,
    sub: Sub,
    ctxs: Vec<ThreadCtx>,
    scripts: Vec<Vec<OpOf<Sub>>>,
    base: PoolSnapshot,
}

impl<Sub: Subject> ExpRunner<Sub> {
    fn new(pool: Arc<PmemPool>, sub: Sub, threads: usize, scripts: Vec<Vec<OpOf<Sub>>>) -> Self {
        let ctxs = (0..threads)
            .map(|t| ThreadCtx::new(pool.clone(), t))
            .collect();
        let base = pool.snapshot();
        ExpRunner {
            pool,
            sub,
            ctxs,
            scripts,
            base,
        }
    }

    /// Executes one schedule, crash-free (`crash_k == None`) or with a
    /// crash armed at event `crash_k`. `horizon` bounds PCT change points;
    /// the driver fixes it once (from a calibration run) so a crash replay
    /// constructs the *identical* strategy as the crash-free run it
    /// replays.
    fn run_one(
        &self,
        cfg: &ExploreCfg,
        strategy: StrategyKind,
        schedule: u64,
        crash_k: Option<u64>,
        horizon: u64,
    ) -> RunOutcome {
        let n = cfg.threads;
        self.pool.restore(&self.base);
        let sched_seed = splitmix64(
            cfg.seed
                ^ (strategy as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ schedule.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        );
        let sched = Arc::new(Sched::new(
            n,
            Strategy::new(strategy, n, sched_seed, horizon),
            cfg.fuel,
        ));
        let clock = AtomicU64::new(0);
        if let Some(k) = crash_k {
            self.pool.crash_ctl().arm_after(k);
        } else {
            self.pool.crash_ctl().disarm();
        }
        self.pool.set_sched_enabled(true);

        let mut outs: Vec<WorkerOut<Sub::S>> = Vec::with_capacity(n);
        let mut worker_panic: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(n);
            for t in 0..n {
                let sched = &sched;
                let clock = &clock;
                let sub = &self.sub;
                let ctx = &self.ctxs[t];
                let script = &self.scripts[t];
                handles.push(
                    s.spawn(move || worker_body(t, sched, clock, sub, ctx, script.as_slice())),
                );
            }
            sched.launch();
            for h in handles {
                match h.join() {
                    Ok(o) => outs.push(o),
                    Err(p) => worker_panic = Some(p),
                }
            }
        });
        self.pool.set_sched_enabled(false);
        self.pool.crash_ctl().disarm();
        let events = sched.events();

        outs.sort_by_key(|o| o.tid);
        // Harvested worker panics: pool exhaustion becomes a distinct
        // `exhausted` outcome with the actionable capacity message (it used
        // to surface as an opaque worker panic killing the exploration);
        // anything else is a real bug and resumes unwinding.
        if worker_panic.is_none() {
            worker_panic = outs.iter_mut().find_map(|o| o.panic.take());
        }
        if let Some(p) = worker_panic {
            let Some(msg) = pmem::exhaustion_message(p.as_ref()) else {
                std::panic::resume_unwind(p);
            };
            return RunOutcome {
                strategy,
                schedule,
                crash_k,
                events,
                ops_recorded: 0,
                crashed_threads: 0,
                ok: false,
                exhausted: true,
                note: format!("pool exhausted: {msg}"),
            };
        }
        let crashed: Vec<(usize, CrashedOp)> = outs
            .iter()
            .filter_map(|o| o.crashed.map(|c| (o.tid, c)))
            .collect();
        let mut recorded: Vec<CompletedOp<Sub::S>> =
            outs.into_iter().flat_map(|o| o.done).collect();

        let mut outcome = RunOutcome {
            strategy,
            schedule,
            crash_k,
            events,
            ops_recorded: recorded.len(),
            crashed_threads: crashed.len(),
            ok: true,
            exhausted: false,
            note: String::new(),
        };

        match (crash_k, crashed.is_empty()) {
            (Some(_), true) => {
                // The count run said event k exists in this schedule, yet
                // the replay finished — the interleaving diverged, itself a
                // determinism violation.
                outcome.ok = false;
                outcome.note = "armed crash never fired: schedule replay diverged".into();
                return outcome;
            }
            (None, false) => {
                outcome.ok = false;
                outcome.note = "crash fired in a crash-free run".into();
                return outcome;
            }
            _ => {}
        }

        if let Some(k) = crash_k {
            // Power failure: resolve the crash model, repair the structure,
            // then recover each interrupted thread the way a restarted
            // system would — sequentially, by ascending thread id, reusing
            // each thread's own recovery slots. Recovered responses keep
            // the original invocation stamp and take a fresh response
            // stamp, so their intervals span the crash.
            self.pool
                .crash(&mut *cfg.adversary.instantiate(k, cfg.seed));
            self.pool.set_crash_model_dormant(true);
            // Allocator recovery first, as a restarted system would order
            // it: per-thread structure recovery below may allocate and must
            // not see a half-linked free list (no-op on bump pools).
            self.pool.recover_allocator();
            self.sub.recover_structure();
            for (tid, c) in &crashed {
                let ctx = &self.ctxs[*tid];
                let op = &self.scripts[*tid][c.op_index];
                let ret = if c.past_prologue {
                    self.sub.recover(ctx, op)
                } else {
                    ctx.begin_op(SiteId(0));
                    self.sub.exec(ctx, op)
                };
                let res = clock.fetch_add(1, Ordering::Relaxed);
                recorded.push(CompletedOp {
                    tid: *tid,
                    op: op.clone(),
                    ret,
                    inv: c.inv,
                    res,
                });
            }
            outcome.ops_recorded = recorded.len();
        }

        // The run is quiescent — every worker retired, every interrupted op
        // recovered — so this is a legal drain point: retired blocks become
        // re-issuable, and the audit below must find limbo resolvable.
        self.pool.palloc_drain_all();

        if let Err(e) = self.sub.concurrent_verdict(&self.ctxs[0], &recorded) {
            outcome.ok = false;
            outcome.note = e;
        }
        // Allocator audit (reclaim pools; `Ok(())` on bump pools).
        if let Err(e) = self.pool.palloc_check() {
            outcome.ok = false;
            outcome.note.push_str("; allocator audit: ");
            outcome.note.push_str(&e);
        }
        outcome
    }
}

/// Executes one schedule of an exploration: `(strategy, schedule, crash_k,
/// horizon)` as in [`ExpRunner::run_one`].
type RunOne<'a> = Box<dyn Fn(StrategyKind, u64, Option<u64>, u64) -> RunOutcome + 'a>;

/// The explore engine: builds a registered pair's subject once, with one
/// script per virtual thread.
struct ExploreEngine<'a>(&'a ExploreCfg);

impl<'a> Engine for ExploreEngine<'a> {
    type Out = RunOne<'a>;

    fn run<Sub: Subject>(
        self,
        make: impl Fn(&Arc<PmemPool>, &Dims) -> Sub + Copy + Send + Sync + 'static,
    ) -> RunOne<'a> {
        let cfg = self.0;
        let pool = Arc::new(PmemPool::new(PoolCfg {
            reclaim: cfg.reclaim,
            ..PoolCfg::model(cfg.pool_bytes)
        }));
        let n = cfg.threads;
        let sub = make(&pool, &Dims::verify(n));
        let scripts = (0..n)
            .map(|t| Sub::script(cfg.seed, cfg.ops_per_thread, ScriptFor::Thread(t)))
            .collect();
        let runner = ExpRunner::new(pool, sub, n, scripts);
        Box::new(move |strategy, schedule, crash_k, horizon| {
            runner.run_one(cfg, strategy, schedule, crash_k, horizon)
        })
    }
}

/// Decorrelates crash-point sampling from every other seeded stream.
const CRASH_SALT: u64 = 0xCAFE_F00D_BAAD_5EED;

/// Up to `per_schedule` distinct seeded crash points in `[0, events)`.
fn crash_points(seed: u64, strategy: StrategyKind, schedule: u64, events: u64, n: u64) -> Vec<u64> {
    let mut ks = Vec::new();
    if events == 0 {
        return ks;
    }
    let base =
        splitmix64(seed ^ CRASH_SALT ^ (strategy as u64 + 1).wrapping_mul(0x517C_C1B7_2722_0A95))
            ^ schedule;
    let mut draw = 0u64;
    while (ks.len() as u64) < n.min(events) {
        let k = splitmix64(base ^ draw.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % events;
        if !ks.contains(&k) {
            ks.push(k);
        }
        draw += 1;
        if draw > 16 * n {
            break; // tiny event spaces: accept fewer points
        }
    }
    ks.sort_unstable();
    ks
}

/// Runs one full exploration per [`ExploreCfg`] and returns its report.
///
/// # Panics
///
/// Panics if the configuration is invalid: fewer than 2 threads, a pair
/// the [`crate::registry`] does not list, or a history too large for the
/// [`linearize`] checker's 63-operation bitmask (recorded operations plus
/// the observation phase).
pub fn run_explore(cfg: &ExploreCfg) -> ExploreReport {
    assert!(cfg.threads >= 2, "exploration needs at least 2 threads");
    let entry = registry::find(cfg.structure, cfg.algo).unwrap_or_else(|| {
        panic!(
            "{} has no {} implementation",
            cfg.structure.name(),
            cfg.algo.name()
        )
    });
    // Worst-case history: every scripted op recorded, plus the observation
    // phase (12 finds for sets, one drain op per completed push/enqueue
    // plus the final empty witness for queue/stack, none for the
    // exchanger). The linearize DFS indexes operations in a u64 bitmask.
    let scripted = cfg.threads * cfg.ops_per_thread;
    assert!(
        2 * scripted < 63 && scripted + SET_KEYS as usize <= 63,
        "history too large for the linearize checker: {} threads x {} ops",
        cfg.threads,
        cfg.ops_per_thread
    );

    let run_one = entry.with(ExploreEngine(cfg));
    // Calibrate the PCT horizon with one throwaway crash-free round-robin
    // run (also a cheap end-to-end smoke of the pair before the matrix).
    // Fixed once for the whole exploration: a crash replay must construct
    // the identical strategy as the crash-free run it replays, and shards
    // must generate the same schedules as an unsharded run.
    let horizon = run_one(StrategyKind::RoundRobin, 0, None, 0).events;

    let mut csv = Csv::new(
        &format!(
            "explore_{}{}_t{}",
            if cfg.reclaim { "churn_" } else { "" },
            entry.label(),
            cfg.threads
        ),
        &[
            "strategy",
            "schedule",
            "threads",
            "crash_k",
            "events",
            "ops_recorded",
            "crashed_threads",
            "ok",
            "note",
        ],
    );
    let mut violations = Vec::new();
    let (mut runs, mut runs_skipped, mut crash_runs, mut total_events) = (0u64, 0u64, 0u64, 0u64);
    let record = |csv: &mut Csv, r: &RunOutcome, violations: &mut Vec<RunOutcome>| {
        csv.push(&[
            r.strategy.name().to_string(),
            r.schedule.to_string(),
            cfg.threads.to_string(),
            r.crash_k.map(|k| k.to_string()).unwrap_or_default(),
            r.events.to_string(),
            r.ops_recorded.to_string(),
            r.crashed_threads.to_string(),
            r.ok.to_string(),
            csv_escape(&r.note),
        ]);
        if !r.ok {
            violations.push(r.clone());
        }
    };

    for (si, &strategy) in cfg.strategies.iter().enumerate() {
        for schedule in 0..cfg.schedules {
            let grid_index = si as u64 * cfg.schedules + schedule;
            if cfg.shard_count > 1 && grid_index % cfg.shard_count != cfg.shard_index {
                runs_skipped += 1;
                continue;
            }
            let free = run_one(strategy, schedule, None, horizon);
            runs += 1;
            total_events += free.events;
            let clean = free.ok;
            let events = free.events;
            record(&mut csv, &free, &mut violations);
            if let CrashMode::Sampled { per_schedule } = cfg.crash {
                if clean {
                    for k in crash_points(cfg.seed, strategy, schedule, events, per_schedule) {
                        let r = run_one(strategy, schedule, Some(k), horizon);
                        crash_runs += 1;
                        total_events += r.events;
                        record(&mut csv, &r, &mut violations);
                    }
                }
            }
        }
    }

    ExploreReport {
        cfg: cfg.clone(),
        runs,
        runs_skipped,
        crash_runs,
        total_events,
        violations,
        csv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_alternates_and_skips_dead_threads() {
        let mut s = Strategy::new(StrategyKind::RoundRobin, 3, 1, 0);
        let alive = [true, true, true];
        let picks: Vec<usize> = (0..6).map(|e| s.pick(&alive, e)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        let partial = [true, false, true];
        let picks: Vec<usize> = (0..4).map(|e| s.pick(&partial, e)).collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
    }

    #[test]
    fn random_strategy_is_deterministic_and_live() {
        let alive = [true, true, true, true];
        let mut a = Strategy::new(StrategyKind::Random, 4, 99, 0);
        let mut b = Strategy::new(StrategyKind::Random, 4, 99, 0);
        let pa: Vec<usize> = (0..64).map(|e| a.pick(&alive, e)).collect();
        let pb: Vec<usize> = (0..64).map(|e| b.pick(&alive, e)).collect();
        assert_eq!(pa, pb);
        // A different seed explores a different schedule.
        let mut c = Strategy::new(StrategyKind::Random, 4, 100, 0);
        let pc: Vec<usize> = (0..64).map(|e| c.pick(&alive, e)).collect();
        assert_ne!(pa, pc);
        // Every pick is a live thread, and over 64 picks all 4 appear.
        let mut seen = [false; 4];
        for &p in &pa {
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pct_runs_leader_until_change_point_demotes_it() {
        let alive = [true, true];
        let mut s = Strategy::new(StrategyKind::Pct, 2, 7, 64);
        let picks: Vec<usize> = (0..64).map(|e| s.pick(&alive, e)).collect();
        // The leader runs in long bursts; a change point flips it at most
        // PCT_CHANGE_POINTS times.
        let switches = picks.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            switches <= PCT_CHANGE_POINTS,
            "PCT switched {switches} times: {picks:?}"
        );
    }

    #[test]
    fn crash_points_are_distinct_in_range_and_deterministic() {
        let a = crash_points(42, StrategyKind::Random, 3, 100, 5);
        let b = crash_points(42, StrategyKind::Random, 3, 100, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        let mut uniq = a.clone();
        uniq.dedup();
        assert_eq!(uniq, a, "points must be distinct and sorted");
        assert!(a.iter().all(|&k| k < 100));
        // Tiny event spaces yield fewer (but never duplicate) points.
        let tiny = crash_points(42, StrategyKind::Pct, 0, 3, 8);
        assert!(tiny.len() <= 3);
        assert!(crash_points(42, StrategyKind::Pct, 0, 0, 8).is_empty());
    }

    #[test]
    fn explore_map_scripts_reach_a_resize() {
        // The resize-vs-insert exploration below (and its committed golden
        // CSV in the integration suite) is only meaningful if the scripted
        // key mix actually grows the table. Puts are insert-if-absent, so
        // the distinct-key set — and with it the resize trigger — is the
        // same under any interleaving; serializing the two scripts
        // thread-by-thread is a faithful guard.
        use crate::subject::{HashmapSubject, HASHMAP_SWEEP_CFG};
        let pool = std::sync::Arc::new(PmemPool::new(PoolCfg::model(4 << 20)));
        let entry = registry::find(StructureKind::Hashmap, AlgoKind::Tracking).unwrap();
        let m: HashmapSubject = entry.subject(&pool, &Dims::verify(2));
        for t in 0..2 {
            let ctx = ThreadCtx::new(pool.clone(), t);
            for op in HashmapSubject::script(0, 12, ScriptFor::Thread(t)) {
                m.call(&ctx, &op);
            }
        }
        assert!(
            m.0.bucket_count() > HASHMAP_SWEEP_CFG.initial_buckets,
            "t=2 x 12-op explore scripts never resized ({} buckets)",
            m.0.bucket_count()
        );
    }

    #[test]
    fn two_thread_queue_schedule_linearizes_and_replays_identically() {
        let mut cfg = ExploreCfg::new(StructureKind::Queue, AlgoKind::Tracking);
        cfg.pool_bytes = 8 << 20;
        cfg.schedules = 2;
        cfg.crash = CrashMode::Off;
        let a = run_explore(&cfg);
        assert!(a.ok(), "violations: {:?}", a.violations);
        assert_eq!(a.runs, cfg.strategies.len() as u64 * cfg.schedules);
        let b = run_explore(&cfg);
        assert_eq!(
            a.csv.to_text(),
            b.csv.to_text(),
            "identical cfg must replay identical schedules"
        );
        assert_eq!(a.total_events, b.total_events);
    }

    #[test]
    fn combining_queue_and_stack_schedules_linearize() {
        // Linearizability spot-check for the flat-combining variants: the
        // combiner applies announced ops in thread order within a round, so
        // every interleaving the explorer drives must still produce a history
        // the sequential oracle accepts. Crash injection exercises the
        // announcement/RD_q recovery path under adversarial persistence.
        for kind in [StructureKind::Queue, StructureKind::Stack] {
            let mut cfg = ExploreCfg::new(kind, AlgoKind::TrackingComb);
            cfg.pool_bytes = 8 << 20;
            cfg.ops_per_thread = 3;
            cfg.schedules = 2;
            cfg.crash = CrashMode::Sampled { per_schedule: 2 };
            let r = run_explore(&cfg);
            assert!(r.ok(), "{kind:?} violations: {:?}", r.violations);
            assert!(
                r.crash_runs > 0,
                "{kind:?} sampled mode must inject crashes"
            );
        }
    }

    #[test]
    fn stack_stale_gather_schedule_linearizes() {
        // Regression for a lost push: the stack gather read `top_word`,
        // then the top node's info, with no re-read of `top_cell`. A PCT
        // schedule that preempts a pusher between the two loads while the
        // other thread pushes over (and thereby re-versions) the gathered
        // node made the stale tagging CAS succeed, the update CAS fail
        // silently, and the push report success without installing its
        // node. This is the exact explorer configuration that caught it
        // (pct, default seed, schedule 2, no crashes).
        let mut cfg = ExploreCfg::new(StructureKind::Stack, AlgoKind::Tracking);
        cfg.pool_bytes = 8 << 20;
        cfg.strategies = vec![StrategyKind::Pct];
        cfg.crash = CrashMode::Off;
        let r = run_explore(&cfg);
        assert!(r.ok(), "violations: {:?}", r.violations);
    }

    #[test]
    fn crash_injected_exchanger_schedules_recover() {
        let mut cfg = ExploreCfg::new(StructureKind::Exchanger, AlgoKind::Tracking);
        cfg.pool_bytes = 8 << 20;
        cfg.ops_per_thread = 2;
        cfg.schedules = 2;
        cfg.crash = CrashMode::Sampled { per_schedule: 3 };
        let r = run_explore(&cfg);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert!(r.crash_runs > 0, "sampled mode must inject crashes");
    }

    #[test]
    fn three_thread_list_exploration_is_clean() {
        let mut cfg = ExploreCfg::new(StructureKind::List, AlgoKind::Tracking);
        cfg.pool_bytes = 8 << 20;
        cfg.threads = 3;
        cfg.ops_per_thread = 3;
        cfg.schedules = 1;
        cfg.crash = CrashMode::Sampled { per_schedule: 1 };
        let r = run_explore(&cfg);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert!(r.crash_runs >= 1);
    }

    #[test]
    fn reclaim_queue_exploration_recovers_and_audits_clean() {
        // Allocator-churn exploration: concurrent enqueues/dequeues retire
        // nodes, crashes land anywhere (including inside palloc protocols),
        // recovery runs recover_allocator first, and every verdict audits
        // the free lists. The CSV name gains the churn_ prefix.
        let mut cfg = ExploreCfg::new(StructureKind::Queue, AlgoKind::Tracking);
        cfg.pool_bytes = 8 << 20;
        cfg.ops_per_thread = 3;
        cfg.schedules = 2;
        cfg.crash = CrashMode::Sampled { per_schedule: 3 };
        cfg.reclaim = true;
        let r = run_explore(&cfg);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert!(r.crash_runs > 0);
        assert!(r.csv.to_text().starts_with("strategy") || !r.csv.to_text().is_empty());
    }

    #[test]
    fn exhausted_worker_is_classified_not_a_panic() {
        // A per-thread script that overruns a deliberately tiny pool: the
        // run must come back as an `exhausted` outcome carrying the pool's
        // capacity message instead of unwinding out of the explorer (and
        // the sibling worker, gated on the scheduler, must still shut down
        // cleanly via the crash cascade rather than deadlocking).
        // The layout reserves 1 + NUM_ROOTS + MAX_THREADS = 145 lines, so a
        // 160-line pool leaves ~14 heap lines: small enough that a modest
        // enqueue-heavy script overruns it mid-schedule, large enough that
        // pool and queue construction succeed.
        let mut cfg = ExploreCfg::new(StructureKind::Queue, AlgoKind::Tracking);
        cfg.pool_bytes = 10 << 10;
        cfg.schedules = 1;
        cfg.strategies = vec![StrategyKind::RoundRobin];
        cfg.crash = CrashMode::Off;
        let mut hit = None;
        for ops in [4usize, 8, 12, 15] {
            cfg.ops_per_thread = ops;
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_explore(&cfg)));
            match r {
                Ok(rep) => {
                    if rep.violations.iter().any(|v| v.exhausted) {
                        hit = Some(rep);
                        break;
                    }
                }
                Err(p) => {
                    // A panic reaching us means classification failed.
                    panic!(
                        "exhaustion escaped as a panic: {:?}",
                        pmem::exhaustion_message(p.as_ref())
                    );
                }
            }
        }
        let rep = hit.expect("no script size exhausted the 128 KiB pool");
        let v = rep.violations.iter().find(|v| v.exhausted).unwrap();
        assert!(
            v.note.contains(pmem::EXHAUSTED_PREFIX),
            "note must carry the actionable message: {}",
            v.note
        );
    }

    #[test]
    fn sharding_partitions_the_schedule_grid() {
        let mut cfg = ExploreCfg::new(StructureKind::Stack, AlgoKind::Tracking);
        cfg.pool_bytes = 8 << 20;
        cfg.schedules = 2;
        cfg.crash = CrashMode::Off;
        cfg.shard_count = 3;
        let mut runs = 0;
        for i in 0..3 {
            cfg.shard_index = i;
            let r = run_explore(&cfg);
            assert!(r.ok(), "violations: {:?}", r.violations);
            runs += r.runs;
        }
        let full = run_explore(&ExploreCfg {
            shard_count: 1,
            shard_index: 0,
            ..cfg
        });
        assert_eq!(runs, full.runs, "shards must cover the whole grid");
    }

    #[test]
    fn romulus_schedules_linearize_and_recover() {
        // The one blocking subject: its writer mutex and seqlock reader
        // spins go through the spin channel, so schedules terminate even
        // though a parked writer blocks everyone else. Crash injection
        // exercises the twin-region recovery (MUTATING restore / COPYING
        // roll-forward) from genuinely concurrent interleavings, including
        // crashes that land while another thread busy-waits on the lock.
        let mut cfg = ExploreCfg::new(StructureKind::List, AlgoKind::Romulus);
        cfg.pool_bytes = 8 << 20;
        cfg.ops_per_thread = 3;
        cfg.schedules = 2;
        cfg.crash = CrashMode::Sampled { per_schedule: 2 };
        let r = run_explore(&cfg);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert!(r.crash_runs > 0, "sampled mode must inject crashes");
        // Determinism despite the extra spin traffic: identical cfg must
        // replay identical schedules.
        let again = run_explore(&cfg);
        assert_eq!(r.csv.to_text(), again.csv.to_text());
    }

    #[test]
    #[should_panic(expected = "history too large")]
    fn oversized_history_is_rejected() {
        let mut cfg = ExploreCfg::new(StructureKind::Queue, AlgoKind::Tracking);
        cfg.threads = 8;
        cfg.ops_per_thread = 8;
        run_explore(&cfg);
    }
}
