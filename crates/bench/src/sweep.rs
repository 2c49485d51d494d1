//! Exhaustive crash-sweep verification: crash a scripted workload at
//! *every* instrumented persistence event and check both of the paper's
//! correctness obligations at each point.
//!
//! The integration tests' fixed scenarios and the `crashsweep` matrix both
//! run on this engine. One sweep of a `(structure, algorithm)` pair
//! proceeds in three phases:
//!
//! 1. **Count.** Run the deterministic scripted workload once, crash-free,
//!    on a traced pool ([`pmem::PoolCfg::trace`]). Every instrumented
//!    primitive records exactly one trace event and consumes exactly one
//!    crash-countdown tick, so [`pmem::TraceSnapshot::total`] is the exact
//!    number `N` of possible crash points.
//! 2. **Sweep.** For each `k ∈ [0, N)` (optionally sharded or sampled):
//!    arm [`pmem::CrashCtl::arm_after`] and replay the script under
//!    [`pmem::run_crashable`]. Two replay engines exist:
//!    * the **checkpointed engine** (default, [`SweepCfg::checkpoint`]):
//!      one additional traced *capture* run takes [`pmem::PoolSnapshot`]s
//!      at operation boundaries every ~√N events; each point then
//!      [`pmem::PmemPool::restore`]s the nearest checkpoint at or before
//!      `k`, rebases the countdown to `k − checkpoint.events`, and replays
//!      only the remaining operations — `O(N·√N)` total work instead of
//!      the scratch engine's `O(N²)`;
//!    * the **scratch engine** rebuilds the structure in a fresh pool and
//!      replays the whole script per point (the original, trivially
//!      correct engine — kept for A/B timing and as the referee).
//!
//!    [`SweepCfg::paranoia`] cross-checks a sampled subset of points under
//!    *both* engines, traced, and reports any difference in verdicts or
//!    pre-crash event streams as a violation.
//!
//!    The injected [`pmem::CrashPoint`] unwinds
//!    mid-operation; the harness then resolves the crash model
//!    ([`pmem::PmemPool::crash`] under a configurable adversary), runs the
//!    algorithm's recovery entry points, and checks:
//!    * **detectability** — the recovered response equals the response the
//!      crashed operation *must* produce per the sequential model (the
//!      operation took effect exactly once, and the thread can tell), and
//!    * **durable linearizability** — the pre-crash responses, the
//!      recovered response, and a post-recovery read-only observation phase
//!      form one linearizable history of the [`linearize`] specification,
//!      with the structure's quiescent state matching the model.
//! 3. **Minimize.** If any point failed, the smallest failing `k` is
//!    re-run on a traced pool and the last events before the injection are
//!    rendered (with [`pmem::PmemPool::site_name`] attribution) into a
//!    [`FailureReport`] — the exact store/flush window a debugging session
//!    needs.
//!
//! A crash may also land *inside* [`pmem::ThreadCtx::begin_op`] — the
//! system's `CP_q := 0` prologue, before the operation body touched the
//! structure. Recovery functions are only specified for crashes after the
//! prologue (they consult `RD_q`, which still describes the *previous*
//! operation), so the harness plays the recovering system faithfully: it
//! re-issues the prologue and invokes the operation fresh rather than
//! calling `recover_*`.
//!
//! The workload scripts are deterministic functions of the sweep seed (or
//! the caller's fixed script, [`run_sweep_script`]), so the count and every
//! replay observe the identical event stream, and a failing `k` reproduces
//! exactly. The `crashsweep` binary drives this
//! engine over the full structure × algorithm matrix and writes one CSV per
//! pair under `results/crashsweep/`.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use linearize::{History, Spec};
use pmem::{
    run_crashable, CrashAdversary, Event, PAddr, PessimistAdversary, PmemPool, PoolCfg,
    PoolSnapshot, SeededAdversary, SiteId, ThreadCtx,
};

use crate::adapter::{AlgoKind, StructureKind};
use crate::csv::Csv;
use crate::registry::{self, Dims, Engine};
use crate::subject::{splitmix64, Bench, OpOf, RetOf, ScriptFor, Subject};
use crate::workload::{Class, Mix};

/// Threads the swept structures are sized for (per-thread tables of the
/// algorithms that need them; the sweep itself is single-threaded so that
/// exhaustive crash-point enumeration is deterministic and the model
/// unambiguous — concurrent interleavings are [`crate::explore`]'s job).
const SWEEP_THREADS: usize = 2;

/// Crash adversary applied when resolving each injected crash.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AdversaryKind {
    /// [`PessimistAdversary`]: every unflushed line reverts — maximal loss,
    /// the strongest durability obligation, fully deterministic.
    Pessimist,
    /// [`SeededAdversary`] reseeded per crash point: each line
    /// independently survives or reverts, covering partial-loss interleavings.
    Seeded,
}

impl AdversaryKind {
    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<AdversaryKind> {
        Some(match s {
            "pessimist" => AdversaryKind::Pessimist,
            "seeded" => AdversaryKind::Seeded,
            _ => return None,
        })
    }

    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            AdversaryKind::Pessimist => "pessimist",
            AdversaryKind::Seeded => "seeded",
        }
    }

    pub(crate) fn instantiate(self, k: u64, seed: u64) -> Box<dyn CrashAdversary> {
        match self {
            AdversaryKind::Pessimist => Box::new(PessimistAdversary),
            AdversaryKind::Seeded => Box::new(SeededAdversary::new(
                splitmix64(seed ^ k.wrapping_mul(0x9E37_79B9)) | 1,
            )),
        }
    }
}

/// Configuration of one sweep (one structure × algorithm pair).
#[derive(Clone, Debug)]
pub struct SweepCfg {
    /// Which structure shape to sweep.
    pub structure: StructureKind,
    /// Which implementation; `(structure, algo)` must be a pair of the
    /// [`crate::registry`].
    pub algo: AlgoKind,
    /// Seed for the workload script, sampling, and the seeded adversary.
    pub seed: u64,
    /// This shard's index in `[0, shard_count)`.
    pub shard_index: u64,
    /// Number of shards splitting the crash points (`k % shard_count ==
    /// shard_index` selects this shard's points). `1` = run everything.
    pub shard_count: u64,
    /// Probability of running each crash point (`1.0` = exhaustive).
    /// Selection is a deterministic function of `(seed, k)`.
    pub sample: f64,
    /// Crash adversary.
    pub adversary: AdversaryKind,
    /// Pool size for each replay.
    pub pool_bytes: usize,
    /// Number of operations in the scripted workload.
    pub script_len: usize,
    /// Events rendered around a minimized failure.
    pub trace_tail: usize,
    /// Replay engine: `true` (the default) replays each crash point from
    /// the nearest op-boundary checkpoint of a single capture run; `false`
    /// rebuilds the structure from scratch per point (the original engine,
    /// kept as the paranoia cross-check and for A/B timing).
    pub checkpoint: bool,
    /// Probability that a replayed point is additionally cross-checked:
    /// both engines re-run it traced and must produce identical verdicts
    /// and identical pre-crash event streams. `0.0` = off; only meaningful
    /// with `checkpoint`. Selection is deterministic in `(seed, k)`.
    pub paranoia: f64,
    /// `pwb` site mask applied to every pool of the sweep
    /// ([`PmemPool::set_sites_mask`]). A disabled site's `pwb`s are
    /// invisible to crash-point enumeration — they neither tick the crash
    /// countdown nor trace. Default `u64::MAX` (all sites enabled).
    pub site_mask: u64,
    /// Build pools with the recoverable free-list allocator
    /// ([`pmem::PoolCfg::reclaim`]): structures retire removed nodes, the
    /// harness drains limbo at every operation boundary (a quiescent
    /// point), each drain step is itself a swept crash point, recovery
    /// runs [`PmemPool::recover_allocator`] before structure recovery, and
    /// every verdict additionally audits the allocator's lists
    /// ([`PmemPool::palloc_check`]). Default `false` (bump arena; event
    /// streams bit-identical to before this knob existed).
    pub reclaim: bool,
    /// Multi-crash tier: number of *second* crash points injected per
    /// first crash point (`0` = off, the classic single-crash sweep,
    /// bit-identical to before this knob existed). When `> 0`, each
    /// replayed point additionally (a) snapshots the post-crash state,
    /// (b) runs recovery once crash-free to count its instrumented events
    /// `M` and take the single-crash verdict, then (c) for each of the
    /// `multi_crash` second points restores the snapshot, re-arms the
    /// countdown at a deterministic `k₂ ∈ [0, M)`, crashes *inside
    /// recovery*, resolves the crash model again, re-runs recovery to
    /// completion, and applies the full detectability + durable
    /// linearizability + allocator-audit verdict. This checks the paper's
    /// requirement that recovery functions are themselves crash-restartable
    /// — a crash mid-recovery followed by a fresh recovery must still
    /// produce the exactly-once response.
    pub multi_crash: u64,
}

impl SweepCfg {
    /// Defaults for a pair: exhaustive, single shard, pessimist adversary.
    pub fn new(structure: StructureKind, algo: AlgoKind) -> SweepCfg {
        SweepCfg {
            structure,
            algo,
            seed: 0xC0FF_EE11,
            shard_index: 0,
            shard_count: 1,
            sample: 1.0,
            adversary: AdversaryKind::Pessimist,
            pool_bytes: 64 << 20,
            script_len: 12,
            trace_tail: 14,
            checkpoint: true,
            paranoia: 0.0,
            site_mask: u64::MAX,
            reclaim: false,
            multi_crash: 0,
        }
    }
}

/// Outcome of one crash point.
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// The armed crash point (`k` events survived, event `k` crashed).
    pub k: u64,
    /// Index of the operation the crash interrupted.
    pub op_index: usize,
    /// Rendered operation (`Insert(7)`, `Dequeue`, …).
    pub op: String,
    /// Whether the armed crash actually fired. `false` before the end of a
    /// sweep means the replay diverged from the count run — itself a
    /// verification failure (non-deterministic event stream).
    pub crashed: bool,
    /// Did the recovered response match the sequential model?
    pub detect_ok: bool,
    /// Did the full history linearize and the quiescent state check out?
    pub durable_ok: bool,
    /// The replay panicked with the pool's exhaustion message instead of
    /// reaching a verdict: a capacity problem, not a crash-consistency
    /// finding. `note` carries the actionable message.
    pub exhausted: bool,
    /// Failure detail (empty when the point passed).
    pub note: String,
    /// Second crash points injected mid-recovery at this point (multi-crash
    /// tier only; `0` on classic single-crash sweeps).
    pub recrash_points: u64,
    /// Rendered trace window (traced re-runs only).
    pub trace_tail: Vec<String>,
}

impl PointOutcome {
    /// Point `k`, interrupting op `op_index` (`op`), before any verdict:
    /// crashed, both obligations holding.
    fn new(k: u64, op_index: usize, op: String) -> PointOutcome {
        PointOutcome {
            k,
            op_index,
            op,
            crashed: true,
            detect_ok: true,
            durable_ok: true,
            exhausted: false,
            note: String::new(),
            recrash_points: 0,
            trace_tail: Vec::new(),
        }
    }

    /// A point whose run exhausted the pool; `note` carries the pool's
    /// capacity message.
    fn exhausted(k: u64, op_index: usize, op: String, note: String) -> PointOutcome {
        PointOutcome {
            crashed: false,
            exhausted: true,
            note,
            ..PointOutcome::new(k, op_index, op)
        }
    }

    /// Did this crash point pass both obligations?
    pub fn ok(&self) -> bool {
        self.crashed && self.detect_ok && self.durable_ok && !self.exhausted
    }
}

/// The minimized description of the first (smallest-`k`) failing point.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// Smallest failing crash point.
    pub k: u64,
    /// Interrupted operation index.
    pub op_index: usize,
    /// Rendered interrupted operation.
    pub op: String,
    /// What went wrong.
    pub detail: String,
    /// The last trace events before the injection, site-attributed.
    pub trace_tail: Vec<String>,
}

impl FailureReport {
    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "minimized failure: k={} interrupts op[{}] = {}\n  {}\n  last events before the crash:\n",
            self.k, self.op_index, self.op, self.detail
        );
        for line in &self.trace_tail {
            out.push_str("    ");
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Result of one full sweep.
pub struct SweepReport {
    /// The configuration that produced this report.
    pub cfg: SweepCfg,
    /// Report/CSV label: `structure_algo`, with a `churn_` prefix on
    /// reclaim sweeps, a `recrash_` prefix on multi-crash tiers, or
    /// `churn_palloc` for the allocator's own sweep.
    pub label: String,
    /// Total instrumented events `N` of the crash-free script.
    pub total_events: u64,
    /// Crash points actually replayed.
    pub points_run: u64,
    /// Crash points skipped by sharding/sampling.
    pub points_skipped: u64,
    /// Points additionally cross-checked by paranoia mode (both engines
    /// re-run traced; any divergence lands in `violations`).
    pub paranoia_checked: u64,
    /// Total second crash points injected mid-recovery across all replayed
    /// points (multi-crash tier; `0` on classic sweeps).
    pub recrash_checked: u64,
    /// Every failing point, ascending by `k`.
    pub violations: Vec<PointOutcome>,
    /// Minimized first failure (when any point failed).
    pub first_failure: Option<FailureReport>,
    /// Per-point CSV (one row per replayed point).
    pub csv: Csv,
}

impl SweepReport {
    /// Did every replayed point pass?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line console summary.
    pub fn summary(&self) -> String {
        let recrash = if self.recrash_checked > 0 {
            format!(" recrash={}", self.recrash_checked)
        } else {
            String::new()
        };
        format!(
            "{:<32} events={:<5} run={:<5} skipped={:<5} violations={}{} {}",
            self.label,
            self.total_events,
            self.points_run,
            self.points_skipped,
            self.violations.len(),
            recrash,
            if self.ok() { "OK" } else { "FAIL" },
        )
    }
}

/// Deterministic membership test for `--sample p`.
pub(crate) fn sampled(seed: u64, k: u64, p: f64) -> bool {
    let r = splitmix64(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    ((r >> 11) as f64 / (1u64 << 53) as f64) < p
}

// ------------------------------------------------------- palloc subject

/// Unnamed site used by the palloc subject's own bookkeeping stores.
const P_WORK: SiteId = SiteId(60);

/// Payload stamp written into word 2 of every owned block; a block handed
/// out twice is zeroed by the second allocation, destroying the stamp.
const OWNED_PATTERN: u64 = 0xA110_C47E_D000_0000;

/// One step of the allocator-churn script swept by [`run_palloc_sweep`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum PallocOp {
    /// Allocate a block of this class (1..=[`pmem::MAX_CLASS`] lines) and
    /// push it, durably, onto the subject's owned list.
    Alloc(usize),
    /// Durably pop the owned-list head and retire it to the limbo list.
    Retire,
    /// Drain every thread's limbo list ([`PmemPool::palloc_drain_all`]).
    Drain,
}

/// Trivial sequential spec: allocator steps have no observable response —
/// the verdict is entirely the structural audit in
/// [`PallocSubject::observe`] plus the engine's [`PmemPool::palloc_check`].
#[derive(Clone, Default)]
pub(crate) struct PallocSpec;

impl Spec for PallocSpec {
    type Op = PallocOp;
    type Ret = bool;
    type Digest = ();

    fn apply(&mut self, _op: &PallocOp) -> bool {
        true
    }

    fn digest(&self) {}
}

/// Sweeps the allocator *itself*: the script allocates, retires and drains
/// blocks through the instrumented palloc protocols, keeping every live
/// block on a persistent singly-linked "owned" list anchored at a root
/// cell. After each injected crash plus [`PmemPool::recover_allocator`],
/// [`PallocSubject::observe`] audits the heap: every owned block's payload
/// stamp must be intact (a block issued twice is zeroed by the second
/// allocation) and no owned block may overlap a free-list or limbo block —
/// the no-double-allocate obligation at every possible crash point. It
/// also checks the leak bound: the lines the bump arena issued that are
/// neither owned nor listed are at most the blocks the crashed steps had
/// in flight.
pub(crate) struct PallocSubject {
    owned: PAddr,
    /// Lines the crashes since the last `observe` may have leaked. Each
    /// `recover` of an alloc or retire adds one block's worth
    /// ([`pmem::MAX_CLASS`] lines); a crash inside a drain or before the
    /// prologue adds nothing, because none of its steps allocates or
    /// retires.
    leak_budget: AtomicUsize,
}

impl PallocSubject {
    /// `(address, class)` of every block on the owned list.
    fn owned_blocks(&self, pool: &PmemPool) -> Result<Vec<(u64, usize)>, String> {
        let mut out = Vec::new();
        let mut p = pool.load(self.owned);
        while p != 0 {
            if out.len() > 100_000 {
                return Err("owned list cycles".into());
            }
            let b = PAddr(p);
            let class = pool.load(b.add(1)) as usize;
            if !(1..=pmem::MAX_CLASS).contains(&class) {
                return Err(format!("owned block {p:#x} carries class {class}"));
            }
            if pool.load(b.add(2)) != OWNED_PATTERN ^ p {
                return Err(format!(
                    "owned block {p:#x} payload stamp clobbered — issued twice?"
                ));
            }
            out.push((p, class));
            p = pool.load(b);
        }
        Ok(out)
    }
}

impl Subject for PallocSubject {
    type S = PallocSpec;

    /// Allocator steps at the script's 4 : 3 : 1 (allocs, retires, drains).
    const BENCH: Bench = Bench {
        mix: Mix {
            of: 8,
            read: 1,
            add: 4,
        },
        keys: 0,
        prefill: 0,
        seed: 0,
    };

    fn exec(&self, ctx: &ThreadCtx, op: &PallocOp) -> bool {
        let pool = ctx.pool();
        match *op {
            PallocOp::Alloc(class) => {
                let b = ctx.palloc(class);
                // Link (w0), class (w1) and stamp (w2) are durable before
                // the head moves, so a durable head implies an intact,
                // well-formed block; a crash in between leaks at most `b`.
                pool.store(b, pool.load(self.owned));
                pool.store(b.add(1), class as u64);
                pool.store(b.add(2), OWNED_PATTERN ^ b.raw());
                pool.pwb(b, P_WORK);
                pool.pfence();
                pool.store(self.owned, b.raw());
                pool.pwb(self.owned, P_WORK);
                pool.psync();
            }
            PallocOp::Retire => {
                let head = pool.load(self.owned);
                if head != 0 {
                    let b = PAddr(head);
                    let class = pool.load(b.add(1)) as usize;
                    // The pop is durable *before* the block is retired: no
                    // crash can leave it both owned and on a limbo list.
                    pool.store(self.owned, pool.load(b));
                    pool.pwb(self.owned, P_WORK);
                    pool.psync();
                    ctx.retire(b, class);
                }
            }
            PallocOp::Drain => pool.palloc_drain_all(),
        }
        true
    }

    fn recover(&self, ctx: &ThreadCtx, op: &PallocOp) -> bool {
        // Allocator steps are not detectable operations — a restarted
        // system simply re-invokes them. A crashed step leaks at most its
        // one in-flight block (the paper's bounded-leak budget), which the
        // audit tolerates; what it must never do is double-issue.
        if *op != PallocOp::Drain {
            self.leak_budget
                .fetch_add(pmem::MAX_CLASS, Ordering::Relaxed);
        }
        self.exec(ctx, op)
    }

    fn observe(&self, ctx: &ThreadCtx, _h: &mut History<PallocSpec>) -> Result<(), String> {
        let pool = ctx.pool();
        let owned = self
            .owned_blocks(pool)
            .map_err(|e| format!("owned audit: {e}"))?;
        // No owned block may overlap any block the allocator considers
        // re-issuable (free list or limbo), and owned blocks must not
        // overlap each other.
        let listed: Vec<(u64, usize)> = pool
            .palloc_free_blocks()
            .into_iter()
            .chain(pool.palloc_limbo_blocks())
            .collect();
        let held: usize = owned.iter().chain(&listed).map(|&(_, c)| c).sum();
        let leaked = pool.issued_lines().saturating_sub(held);
        let budget = self.leak_budget.swap(0, Ordering::Relaxed);
        if leaked > budget {
            return Err(format!(
                "leak bound: {leaked} issued lines are neither owned nor listed, \
                 but the crashed steps had at most {budget} in flight"
            ));
        }
        let mut spans: Vec<(u64, u64, &'static str)> = owned
            .iter()
            .map(|&(a, c)| (a, a + (c * pmem::WORDS_PER_LINE) as u64, "owned"))
            .collect();
        for &(a, c) in &listed {
            spans.push((a, a + (c * pmem::WORDS_PER_LINE) as u64, "recyclable"));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            let ((a0, end0, k0), (a1, _, k1)) = (w[0], w[1]);
            if a1 < end0 {
                return Err(format!(
                    "blocks overlap: {k0} block {a0:#x} (ends {end0:#x}) and {k1} block {a1:#x}"
                ));
            }
        }
        Ok(())
    }

    fn call(&self, ctx: &ThreadCtx, op: &PallocOp) -> bool {
        self.exec(ctx, op)
    }

    /// Deterministic allocator-churn script: ~1/2 allocs across every size
    /// class, ~3/8 retires, ~1/8 explicit drains (boundaries drain too).
    fn script(seed: u64, len: usize, who: ScriptFor) -> Vec<PallocOp> {
        let mut rng = who.rng(seed, 0);
        (0..len)
            .map(|_| {
                let r = rng.next();
                match (r >> 32) % 8 {
                    0..=3 => PallocOp::Alloc((r % pmem::MAX_CLASS as u64) as usize + 1),
                    4..=6 => PallocOp::Retire,
                    _ => PallocOp::Drain,
                }
            })
            .collect()
    }

    fn draw(r: u64, mix: &Mix, _keys: u64) -> PallocOp {
        match mix.class(r >> 32) {
            Class::Read => PallocOp::Drain,
            Class::Add => PallocOp::Alloc((r % pmem::MAX_CLASS as u64) as usize + 1),
            Class::Remove => PallocOp::Retire,
        }
    }
}

/// What a [`CaseRunner`]'s build closure returns: a fresh pool (traced or
/// not), the subject in it, and thread 0's context.
type Build<Sub> = (Arc<PmemPool>, Sub, ThreadCtx);

fn palloc_case(cfg: &SweepCfg) -> CaseRunner<PallocSubject, impl Fn(bool) -> Build<PallocSubject>> {
    let c = cfg.clone();
    CaseRunner::new(
        PallocSubject::script(cfg.seed, cfg.script_len, ScriptFor::Sweep),
        move |traced| {
            let pool = pool_for(&c, traced);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            let owned = pool.root(0);
            let sub = PallocSubject {
                owned,
                leak_budget: AtomicUsize::new(0),
            };
            (pool, sub, ctx)
        },
    )
}

// ---------------------------------------------------------------- engine

fn pool_for(cfg: &SweepCfg, traced: bool) -> Arc<PmemPool> {
    let base = PoolCfg {
        reclaim: cfg.reclaim,
        ..PoolCfg::model(cfg.pool_bytes)
    };
    let pool = Arc::new(PmemPool::new(if traced {
        PoolCfg {
            trace: true,
            trace_capacity: 4096,
            ..base
        }
    } else {
        base
    }));
    pool.set_sites_mask(cfg.site_mask);
    pool
}

/// One replay checkpoint: the pool state at an operation boundary,
/// `events` instrumented events into the script.
struct Checkpoint {
    op_idx: usize,
    events: u64,
    snap: PoolSnapshot,
}

/// The attach-once replay context of the checkpointed engine. The subject
/// is built (attached) exactly once, on the capture run's pool, and reused
/// for every replay — attaching anew per point could itself mutate
/// persistent state (Romulus opens a transaction on attach), whereas
/// [`PmemPool::restore`] rewinds everything a replay dirtied.
struct ReplayState<Sub: Subject> {
    pool: Arc<PmemPool>,
    sub: Sub,
    ctx: ThreadCtx,
    /// Crash-free responses of the capture run; `responses[..cp.op_idx]`
    /// seeds a replay's history prefix.
    responses: Vec<RetOf<Sub>>,
    /// Ascending by `events`; `checkpoints[0]` is always the script start.
    checkpoints: Vec<Checkpoint>,
}

struct CaseRunner<Sub: Subject, B> {
    script: Vec<OpOf<Sub>>,
    /// `format!("{:?}")` of each script op, rendered once — the verdict of
    /// every crash point names its interrupted op, and re-rendering per
    /// point is measurable across a full matrix.
    op_strs: Vec<String>,
    build: B,
    replay: RefCell<Option<ReplayState<Sub>>>,
}

impl<Sub, B> CaseRunner<Sub, B>
where
    Sub: Subject,
    B: Fn(bool) -> Build<Sub>,
{
    fn new(script: Vec<OpOf<Sub>>, build: B) -> Self {
        CaseRunner {
            op_strs: script.iter().map(|op| format!("{op:?}")).collect(),
            script,
            build,
            replay: RefCell::new(None),
        }
    }

    /// The shared script loop — identical in the count run, the capture run
    /// and every replay, so tick streams line up exactly. Runs ops
    /// `[start, len)`; `at_boundary(i)` fires right before op `i`'s
    /// prologue, where the pool is quiescent (the checkpoint hook);
    /// `progress` tracks `(op index, past-the-prologue)`; `responses`
    /// collects completed ops.
    fn run_script(
        &self,
        sub: &Sub,
        ctx: &ThreadCtx,
        start: usize,
        progress: &Cell<(usize, bool)>,
        responses: &RefCell<Vec<RetOf<Sub>>>,
        mut at_boundary: impl FnMut(usize),
    ) {
        for (i, op) in self.script.iter().enumerate().skip(start) {
            at_boundary(i);
            progress.set((i, false));
            // Operation boundaries are the pool's quiescent points: drain
            // every thread's limbo list so retired blocks become
            // re-issuable. On a bump pool this is a plain branch — zero
            // instrumented events, so legacy event counts are unchanged. On
            // a reclaim pool each drain step is itself instrumented and
            // therefore a swept crash point; a crash inside the drain is
            // attributed to `(i, pre-prologue)`, the same attribution both
            // engines compute (the checkpoint snapshot at boundary `i` is
            // taken *before* the drain runs).
            ctx.pool().palloc_drain_all();
            ctx.begin_op(SiteId(0));
            progress.set((i, true));
            let r = sub.exec(ctx, op);
            responses.borrow_mut().push(r);
        }
    }

    /// Everything after the armed crash unwinds (or fails to): resolve the
    /// crash model, run recovery, check both obligations. Shared verbatim
    /// between the scratch and checkpointed engines, so their verdicts can
    /// only differ if the replayed *state* differs — exactly what paranoia
    /// mode cross-checks.
    #[allow(clippy::too_many_arguments)]
    fn finish_point(
        &self,
        cfg: &SweepCfg,
        k: u64,
        pool: &PmemPool,
        sub: &Sub,
        ctx: &ThreadCtx,
        progress: (usize, bool),
        responses: &RefCell<Vec<RetOf<Sub>>>,
        crashed: bool,
        trace_tail: Vec<String>,
    ) -> PointOutcome {
        let (j, past_prologue) = progress;
        let mut outcome = PointOutcome {
            crashed,
            trace_tail,
            ..PointOutcome::new(k, j, self.op_strs[j].clone())
        };
        if !crashed {
            // The count said event k exists, yet the replay finished: the
            // event stream diverged between runs. Report, don't recover.
            outcome.note = "replay completed without reaching the armed crash point".into();
            return outcome;
        }

        pool.crash(&mut *cfg.adversary.instantiate(k, cfg.seed));

        // Ground truth: the sequential model over the completed prefix; the
        // interrupted operation must take effect exactly once — no matter
        // how many further crashes interrupt recovery itself.
        let mut model = Sub::S::default();
        for op in &self.script[..j] {
            model.apply(op);
        }
        let expected = model.apply(&self.script[j]);
        let judge = |outcome: &mut PointOutcome, actual, tag: &str| {
            self.judge(
                outcome, pool, sub, ctx, j, responses, &expected, actual, tag,
            )
        };

        if cfg.multi_crash == 0 {
            let pp = Cell::new(past_prologue);
            let actual = self.run_recovery(pool, sub, ctx, j, &pp);
            judge(&mut outcome, actual, "");
            return outcome;
        }

        // Multi-crash tier: recovery is about to crash too. The count pass
        // doubles as the single-crash verdict: recovery runs crash-free
        // under a sentinel countdown whose remainder counts recovery's
        // instrumented events `M`.
        let base = pool.snapshot();
        const SENTINEL: u64 = 1 << 40;
        pool.crash_ctl().arm_after(SENTINEL);
        let pp = Cell::new(past_prologue);
        let r0 = self.run_recovery(pool, sub, ctx, j, &pp);
        let recovery_events = SENTINEL - pool.crash_ctl().remaining() as u64;
        pool.crash_ctl().disarm();
        judge(&mut outcome, r0, "");

        for i in 0..cfg.multi_crash {
            let k2 = splitmix64(cfg.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 48))
                % recovery_events.max(1);
            pool.restore(&base);
            let pp = Cell::new(past_prologue);
            pool.crash_ctl().arm_after(k2);
            let first_pass = run_crashable(|| self.run_recovery(pool, sub, ctx, j, &pp)).is_some();
            pool.crash_ctl().disarm();
            outcome.recrash_points += 1;
            let tag = format!("recrash k2={k2}: ");
            if first_pass {
                // The count pass said event k2 exists within recovery, yet
                // this replay finished: recovery is non-deterministic from
                // identical post-crash state — itself a violation.
                outcome.detect_ok = false;
                outcome.note.push_str(&tag);
                outcome
                    .note
                    .push_str("recovery completed without reaching the armed crash point; ");
                continue;
            }
            // Second crash fired mid-recovery: resolve the crash model
            // again (fresh adversary stream, deterministic in (k, k2)) and
            // run recovery from the top — entry point per where the
            // re-crash fell, exactly as a twice-restarted system would.
            pool.crash(&mut *cfg.adversary.instantiate(k ^ (k2 << 20) ^ 0xD00D, cfg.seed));
            let r2 = self.run_recovery(pool, sub, ctx, j, &pp);
            judge(&mut outcome, r2, &tag);
        }
        outcome
    }

    /// One full recovery pass, ordered as a restarted system orders it:
    /// allocator recovery first (structure recovery may allocate, and it
    /// must not see a half-linked free list; no-op on bump pools), then
    /// structure-global recovery, then the interrupted thread's entry
    /// point. `past_prologue` is updated in place: a re-crash landing
    /// *after* this pass re-issued the prologue resumes through
    /// `recover`, not a third prologue — `CP_q`/`RD_q` describe the
    /// current operation from that moment on.
    fn run_recovery(
        &self,
        pool: &PmemPool,
        sub: &Sub,
        ctx: &ThreadCtx,
        j: usize,
        past_prologue: &Cell<bool>,
    ) -> RetOf<Sub> {
        pool.recover_allocator();
        sub.recover_structure();
        if past_prologue.get() {
            sub.recover(ctx, &self.script[j])
        } else {
            // Crash inside begin_op: RD_q still describes the previous
            // operation, so `recover` would resolve the wrong op. The
            // system re-invokes from the prologue instead (see module docs).
            ctx.begin_op(SiteId(0));
            past_prologue.set(true);
            sub.exec(ctx, &self.script[j])
        }
    }

    /// Applies both of the paper's obligations (plus the allocator audit)
    /// to one recovered response, appending failures to `outcome`. `tag`
    /// prefixes notes so multi-crash verdicts name their second point.
    #[allow(clippy::too_many_arguments)]
    fn judge(
        &self,
        outcome: &mut PointOutcome,
        pool: &PmemPool,
        sub: &Sub,
        ctx: &ThreadCtx,
        j: usize,
        responses: &RefCell<Vec<RetOf<Sub>>>,
        expected: &RetOf<Sub>,
        actual: RetOf<Sub>,
        tag: &str,
    ) {
        if actual != *expected {
            outcome.detect_ok = false;
            outcome.note.push_str(&format!(
                "{tag}detectability: recovered response {:?}, sequential model says {:?}; ",
                actual, expected
            ));
        }

        // Durable linearizability: completed prefix + recovered op +
        // post-recovery observation must linearize from the empty state.
        let mut h: History<Sub::S> = History::new();
        for (op, r) in self.script[..j].iter().zip(responses.borrow().iter()) {
            let t = h.invoke(0, op.clone());
            h.ret(t, r.clone());
        }
        let t = h.invoke(0, self.script[j].clone());
        h.ret(t, actual);
        let structural = sub.observe(ctx, &mut h);
        let lin = h.check(Sub::S::default());
        if structural.is_err() || lin.is_err() {
            outcome.durable_ok = false;
            if let Err(e) = structural {
                outcome.note.push_str(tag);
                outcome.note.push_str(&e);
                outcome.note.push_str("; ");
            }
            if let Err(e) = lin {
                outcome.note.push_str(tag);
                outcome.note.push_str("not linearizable: ");
                outcome.note.push_str(&e);
            }
        }
        // Allocator audit (reclaim pools; `Ok(())` on bump pools): the
        // recovered free lists must be well-formed — no cycles, no
        // overlapping or duplicated blocks, no dangling announcements.
        if let Err(e) = pool.palloc_check() {
            outcome.durable_ok = false;
            outcome.note.push_str(tag);
            outcome.note.push_str("allocator audit: ");
            outcome.note.push_str(&e);
            outcome.note.push_str("; ");
        }
    }

    /// A replay panic that is not the injected crash: a pool-exhaustion
    /// panic becomes a distinct `exhausted` outcome carrying the pool's
    /// actionable capacity message (it used to masquerade as an opaque
    /// worker panic killing the whole sweep); anything else is a real bug
    /// and resumes unwinding.
    fn classify_panic(
        &self,
        k: u64,
        progress: (usize, bool),
        payload: Box<dyn std::any::Any + Send>,
    ) -> PointOutcome {
        let Some(msg) = pmem::exhaustion_message(payload.as_ref()) else {
            std::panic::resume_unwind(payload);
        };
        let (j, _) = progress;
        let note = format!("pool exhausted: {msg}");
        PointOutcome::exhausted(k, j, self.op_strs[j].clone(), note)
    }

    /// Scratch engine, also returning the pre-crash event stream when
    /// traced (paranoia comparison input).
    fn run_point_impl(&self, cfg: &SweepCfg, k: u64, traced: bool) -> (PointOutcome, Vec<Event>) {
        let (pool, sub, ctx) = (self.build)(traced);
        pool.trace_clear(); // constructor events are not crash points
        self.replay_point(cfg, k, traced, (&pool, &sub, &ctx), 0, Vec::new(), k)
    }

    /// Checkpointed engine: restore the nearest checkpoint at or before
    /// `k`, rebase the crash countdown to it, replay only the remaining
    /// operations.
    fn run_point_ckpt_impl(
        &self,
        cfg: &SweepCfg,
        k: u64,
        traced: bool,
    ) -> (PointOutcome, Vec<Event>) {
        let guard = self.replay.borrow();
        let st = guard
            .as_ref()
            .expect("prepare() must run before a checkpointed replay");
        let cp = &st.checkpoints[st.checkpoints.partition_point(|c| c.events <= k) - 1];
        st.pool.restore(&cp.snap);
        st.pool.set_trace_enabled(traced);
        let prefix = st.responses[..cp.op_idx].to_vec();
        let on = (&*st.pool, &st.sub, &st.ctx);
        self.replay_point(cfg, k, traced, on, cp.op_idx, prefix, k - cp.events)
    }

    /// Both engines' replay of point `k`: runs ops `[start, len)` on `on`
    /// (with `responses` completed before them) under a crash armed after
    /// `after` further events, then judges the point.
    #[allow(clippy::too_many_arguments)]
    fn replay_point(
        &self,
        cfg: &SweepCfg,
        k: u64,
        traced: bool,
        (pool, sub, ctx): (&PmemPool, &Sub, &ThreadCtx),
        start: usize,
        responses: Vec<RetOf<Sub>>,
        after: u64,
    ) -> (PointOutcome, Vec<Event>) {
        pool.crash_ctl().arm_after(after);
        let progress = Cell::new((start, false));
        let responses = RefCell::new(responses);
        let done = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_crashable(|| self.run_script(sub, ctx, start, &progress, &responses, |_| {}))
        }));
        pool.crash_ctl().disarm();
        let (events, trace_tail) = capture_stream(pool, cfg, traced);
        let done = match done {
            Ok(d) => d,
            Err(p) => return (self.classify_panic(k, progress.get(), p), events),
        };
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let crashed = done.is_none();
            let at = progress.get();
            self.finish_point(cfg, k, pool, sub, ctx, at, &responses, crashed, trace_tail)
        }))
        .unwrap_or_else(|p| self.classify_panic(k, progress.get(), p));
        (out, events)
    }

    /// Count run: the crash-free script's instrumented events.
    fn count_events(&self) -> u64 {
        let (pool, sub, ctx) = (self.build)(true);
        pool.trace_clear(); // constructor events are not crash points
        let progress = Cell::new((0, false));
        let responses = RefCell::new(Vec::new());
        self.run_script(&sub, &ctx, 0, &progress, &responses, |_| {});
        pool.trace_snapshot().total()
    }

    /// Capture run of the checkpointed engine: one traced crash-free
    /// execution that takes pool snapshots at operation boundaries. Must
    /// run before [`Self::run_point_checkpointed`].
    fn prepare(&self, total_events: u64) {
        // ~√E events between checkpoints: replay cost per point drops from
        // O(E) to O(√E) while the capture keeps only O(√E) snapshots.
        let interval = ((total_events as f64).sqrt().ceil() as u64).max(4);
        let (pool, sub, ctx) = (self.build)(true);
        pool.trace_clear();
        let progress = Cell::new((0, false));
        let responses = RefCell::new(Vec::new());
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        self.run_script(&sub, &ctx, 0, &progress, &responses, |i| {
            let events = pool.trace_event_total();
            let due = match checkpoints.last() {
                None => true, // the script start is always a checkpoint
                Some(last) => events - last.events >= interval,
            };
            if due {
                checkpoints.push(Checkpoint {
                    op_idx: i,
                    events,
                    snap: pool.snapshot(),
                });
            }
        });
        assert_eq!(
            pool.trace_event_total(),
            total_events,
            "capture run diverged from the count run"
        );
        pool.set_trace_enabled(false); // replays run dark unless asked
        *self.replay.borrow_mut() = Some(ReplayState {
            pool,
            sub,
            ctx,
            responses: responses.into_inner(),
            checkpoints,
        });
    }

    /// Scratch engine: rebuild the structure, replay the whole script.
    fn run_point(&self, cfg: &SweepCfg, k: u64, traced: bool) -> PointOutcome {
        self.run_point_impl(cfg, k, traced).0
    }

    /// Checkpointed engine: restore the nearest checkpoint, replay the
    /// remaining ops with the countdown rebased to the checkpoint.
    fn run_point_checkpointed(&self, cfg: &SweepCfg, k: u64, traced: bool) -> PointOutcome {
        self.run_point_ckpt_impl(cfg, k, traced).0
    }

    /// Re-runs point `k` traced under *both* engines; `Some(detail)` when
    /// their verdicts or pre-crash event streams diverge.
    fn paranoia_check(&self, cfg: &SweepCfg, k: u64) -> Option<String> {
        let (s, s_ev) = self.run_point_impl(cfg, k, true);
        let (c, c_ev) = self.run_point_ckpt_impl(cfg, k, true);
        let sv = (s.crashed, s.op_index, s.detect_ok, s.durable_ok);
        let cv = (c.crashed, c.op_index, c.detect_ok, c.durable_ok);
        if sv != cv {
            return Some(format!(
                "verdicts diverge: scratch (crashed, op, detect, durable) = {sv:?}, \
                 checkpointed = {cv:?}"
            ));
        }
        // The checkpointed stream starts at its checkpoint and the rings
        // may have dropped their oldest entries, so compare the overlap —
        // sequence numbers line up because restore rewinds the counter to
        // the capture run's value at the boundary.
        let n = s_ev.len().min(c_ev.len());
        let (st, ct) = (&s_ev[s_ev.len() - n..], &c_ev[c_ev.len() - n..]);
        if let Some(i) = (0..n).find(|&i| st[i] != ct[i]) {
            return Some(format!(
                "event streams diverge: scratch {:?} vs checkpointed {:?}",
                st[i], ct[i]
            ));
        }
        None
    }
}

/// Trace snapshot + rendered tail of a traced replay (empty when dark).
fn capture_stream(pool: &PmemPool, cfg: &SweepCfg, traced: bool) -> (Vec<Event>, Vec<String>) {
    if !traced {
        return (Vec::new(), Vec::new());
    }
    let snap = pool.trace_snapshot();
    let tail = render_tail(pool, &snap.events, cfg.trace_tail);
    (snap.events, tail)
}

fn render_tail(pool: &PmemPool, events: &[Event], n: usize) -> Vec<String> {
    let start = events.len().saturating_sub(n);
    events[start..]
        .iter()
        .map(|e| {
            let site = if e.site == pmem::NO_SITE {
                String::new()
            } else {
                match pool.site_name(SiteId(e.site)) {
                    Some(name) => format!("  site {} ({})", e.site, name),
                    None => format!("  site {}", e.site),
                }
            };
            format!(
                "seq {:>6}  t{} {:<8} line {:>5} word {:>7} {}{}",
                e.seq,
                e.tid,
                e.kind.label(),
                e.line,
                e.addr,
                if e.dirty { "dirty" } else { "clean" },
                site,
            )
        })
        .collect()
}

/// The replay case of a registered pair's subject under `cfg`, over
/// `script`.
fn case_of<Sub: Subject>(
    cfg: &SweepCfg,
    script: Vec<OpOf<Sub>>,
    make: impl Fn(&Arc<PmemPool>, &Dims) -> Sub + Copy + Send + Sync + 'static,
) -> CaseRunner<Sub, impl Fn(bool) -> Build<Sub>> {
    let c = cfg.clone();
    let dims = Dims::verify(SWEEP_THREADS);
    CaseRunner::new(script, move |traced| {
        let pool = pool_for(&c, traced);
        let sub = make(&pool, &dims);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        (pool, sub, ctx)
    })
}

/// The sweep engine: sweeps a registered pair, reporting under a label.
struct SweepEngine<'a>(&'a SweepCfg, String);

impl Engine for SweepEngine<'_> {
    type Out = SweepReport;

    fn run<Sub: Subject>(
        self,
        make: impl Fn(&Arc<PmemPool>, &Dims) -> Sub + Copy + Send + Sync + 'static,
    ) -> SweepReport {
        let script = Sub::script(self.0.seed, self.0.script_len, ScriptFor::Sweep);
        run_sweep_case(self.0, &case_of(self.0, script, make), self.1)
    }
}

/// The registered pair a sweep configuration names.
fn entry_of(cfg: &SweepCfg) -> &'static registry::Entry {
    registry::find(cfg.structure, cfg.algo).unwrap_or_else(|| {
        panic!(
            "{} has no {} implementation",
            cfg.structure.name(),
            cfg.algo.name()
        )
    })
}

/// Deterministic second hash stream for paranoia sampling (decorrelated
/// from the `--sample` selection).
const PARANOIA_SALT: u64 = 0x5AFE_C0DE_D00D_F00D;

/// Per-point CSV schema (unchanged since the engine's introduction;
/// exhausted points are encoded in `note`, not a new column).
const SWEEP_CSV_COLUMNS: &[&str] = &[
    "k",
    "op_index",
    "op",
    "crashed",
    "detect_ok",
    "durable_ok",
    "note",
];

/// The report label of a sweep of `cfg`'s registered pair.
fn label_of(cfg: &SweepCfg) -> String {
    format!(
        "{}{}{}",
        if cfg.multi_crash > 0 { "recrash_" } else { "" },
        if cfg.reclaim { "churn_" } else { "" },
        entry_of(cfg).label()
    )
}

/// Runs one full sweep per [`SweepCfg`] and returns its report.
pub fn run_sweep(cfg: &SweepCfg) -> SweepReport {
    entry_of(cfg).with(SweepEngine(cfg, label_of(cfg)))
}

/// Sweeps the registered pair `(cfg.structure, cfg.algo)` over the
/// caller's `script` instead of its seeded one (`cfg.script_len` is
/// ignored): every crash point of every operation, judged as
/// [`run_sweep`] judges it. `Sub` must be the pair's subject type.
pub fn run_sweep_script<Sub: Subject>(cfg: &SweepCfg, script: Vec<OpOf<Sub>>) -> SweepReport {
    let entry = entry_of(cfg);
    let case = case_of::<Sub>(cfg, script, move |p, d| entry.subject(p, d));
    run_sweep_case(cfg, &case, label_of(cfg))
}

/// Sweeps the allocator itself (the `PallocSubject` script): forces a reclaim
/// pool, runs the allocator-churn script, and audits the heap at every
/// crash point. `cfg.structure`/`cfg.algo` are ignored.
pub fn run_palloc_sweep(cfg: &SweepCfg) -> SweepReport {
    let cfg = SweepCfg {
        reclaim: true,
        ..cfg.clone()
    };
    let case = palloc_case(&cfg);
    let label = format!(
        "{}churn_palloc",
        if cfg.multi_crash > 0 { "recrash_" } else { "" }
    );
    run_sweep_case(&cfg, &case, label)
}

fn run_sweep_case<Sub: Subject>(
    cfg: &SweepCfg,
    case: &CaseRunner<Sub, impl Fn(bool) -> Build<Sub>>,
    label: String,
) -> SweepReport {
    // A pool too small for the crash-free script is a configuration
    // problem, not a crash-consistency finding: classify it as one
    // `exhausted` violation carrying the pool's actionable capacity
    // message instead of letting the panic kill the whole matrix.
    let counted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case.count_events()));
    let total_events = match counted {
        Ok(n) => n,
        Err(p) => {
            let Some(msg) = pmem::exhaustion_message(p.as_ref()) else {
                std::panic::resume_unwind(p);
            };
            let note = format!("pool exhausted during the crash-free count run: {msg}");
            let out = PointOutcome::exhausted(0, 0, String::new(), note);
            return SweepReport {
                cfg: cfg.clone(),
                label: label.clone(),
                total_events: 0,
                points_run: 0,
                points_skipped: 0,
                paranoia_checked: 0,
                recrash_checked: 0,
                violations: vec![out],
                first_failure: None,
                csv: Csv::new(&label, SWEEP_CSV_COLUMNS),
            };
        }
    };
    if cfg.checkpoint {
        case.prepare(total_events);
    }
    let mut csv = Csv::new(&label, SWEEP_CSV_COLUMNS);
    let mut violations = Vec::new();
    let (mut points_run, mut points_skipped) = (0u64, 0u64);
    let mut paranoia_checked = 0u64;
    let mut recrash_checked = 0u64;
    for k in 0..total_events {
        let in_shard = cfg.shard_count <= 1 || k % cfg.shard_count == cfg.shard_index;
        if !in_shard || (cfg.sample < 1.0 && !sampled(cfg.seed, k, cfg.sample)) {
            points_skipped += 1;
            continue;
        }
        let p = if cfg.checkpoint {
            case.run_point_checkpointed(cfg, k, false)
        } else {
            case.run_point(cfg, k, false)
        };
        if cfg.checkpoint
            && cfg.paranoia > 0.0
            && sampled(cfg.seed ^ PARANOIA_SALT, k, cfg.paranoia)
        {
            paranoia_checked += 1;
            if let Some(err) = case.paranoia_check(cfg, k) {
                violations.push(PointOutcome {
                    crashed: p.crashed,
                    detect_ok: false,
                    durable_ok: p.durable_ok,
                    exhausted: p.exhausted,
                    note: format!("paranoia: {err}"),
                    ..PointOutcome::new(k, p.op_index, p.op.clone())
                });
            }
        }
        csv.push(&[
            k.to_string(),
            p.op_index.to_string(),
            p.op.clone(),
            p.crashed.to_string(),
            p.detect_ok.to_string(),
            p.durable_ok.to_string(),
            csv_escape(&p.note),
        ]);
        points_run += 1;
        recrash_checked += p.recrash_points;
        if !p.ok() {
            violations.push(p);
        }
    }
    let first_failure = violations.first().map(|worst| {
        let traced = case.run_point(cfg, worst.k, true);
        FailureReport {
            k: worst.k,
            op_index: worst.op_index,
            op: worst.op.clone(),
            detail: if worst.note.is_empty() {
                "replay diverged".into()
            } else {
                worst.note.clone()
            },
            trace_tail: traced.trace_tail,
        }
    });
    SweepReport {
        cfg: cfg.clone(),
        label,
        total_events,
        points_run,
        points_skipped,
        paranoia_checked,
        recrash_checked,
        violations,
        first_failure,
        csv,
    }
}

/// Keeps failure notes inside one CSV cell.
pub(crate) fn csv_escape(s: &str) -> String {
    s.replace(',', ";").replace('\n', " ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_and_bounded() {
        use crate::subject::{QueueSubject, SetSubject, StackSubject, SET_KEYS};
        use linearize::SetOp;
        use tracking::{RecoverableQueue, RecoverableStack};
        let a = SetSubject::script(42, 12, ScriptFor::Sweep);
        let b = SetSubject::script(42, 12, ScriptFor::Sweep);
        assert_eq!(a, b);
        assert_ne!(a, SetSubject::script(43, 12, ScriptFor::Sweep));
        for op in &a {
            let (SetOp::Insert(k) | SetOp::Delete(k) | SetOp::Find(k)) = op;
            assert!((1..=SET_KEYS).contains(k));
        }
        type Q = QueueSubject<RecoverableQueue>;
        type St = StackSubject<RecoverableStack>;
        assert_eq!(
            Q::script(7, 10, ScriptFor::Sweep),
            Q::script(7, 10, ScriptFor::Sweep)
        );
        assert_eq!(
            St::script(7, 10, ScriptFor::Sweep),
            St::script(7, 10, ScriptFor::Sweep)
        );
    }

    #[test]
    fn pinned_hashmap_script_reaches_a_resize() {
        // The sweep-regression pin (tests/tests/sweep_regression.rs) claims
        // its counted event space covers a full resize; this guards the
        // claim — the pinned script against the aggressive sweep config
        // must grow the table past its initial two buckets.
        use crate::subject::{HashmapSubject, HASHMAP_SWEEP_CFG};
        let script = HashmapSubject::script(0xDECA_FBAD, 24, ScriptFor::Sweep);
        let pool = std::sync::Arc::new(PmemPool::new(PoolCfg::model(4 << 20)));
        let entry = registry::find(StructureKind::Hashmap, AlgoKind::Tracking).unwrap();
        let m: HashmapSubject = entry.subject(&pool, &Dims::verify(1));
        let ctx = ThreadCtx::new(pool, 0);
        for op in &script {
            m.call(&ctx, op);
        }
        assert!(
            m.0.bucket_count() > HASHMAP_SWEEP_CFG.initial_buckets,
            "pinned script never resized ({} buckets): the sweep pin no \
             longer covers the resize protocol",
            m.0.bucket_count()
        );
    }

    #[test]
    fn sampling_is_deterministic_and_roughly_proportional() {
        let hits: Vec<bool> = (0..1000).map(|k| sampled(9, k, 0.25)).collect();
        let again: Vec<bool> = (0..1000).map(|k| sampled(9, k, 0.25)).collect();
        assert_eq!(hits, again);
        let n = hits.iter().filter(|&&h| h).count();
        assert!((100..400).contains(&n), "0.25 sample hit {n}/1000");
        assert_eq!((0..100).filter(|&k| sampled(9, k, 0.0)).count(), 0);
        assert_eq!((0..100).filter(|&k| sampled(9, k, 1.0)).count(), 100);
    }

    #[test]
    fn exchanger_sweep_is_clean() {
        let mut cfg = SweepCfg::new(StructureKind::Exchanger, AlgoKind::Tracking);
        cfg.pool_bytes = 4 << 20;
        let report = run_sweep(&cfg);
        assert!(report.total_events > 0);
        assert_eq!(report.points_run, report.total_events);
        assert!(report.ok(), "violations: {:?}", report.violations);
    }

    #[test]
    fn combining_queue_and_stack_sweeps_are_clean() {
        // Crash-sweep smoke over the flat-combining variants: every pwb of
        // the announcement/round/publish protocol becomes a crash point, and
        // recovery must replay each announced op exactly once. Sampled so the
        // smoke stays cheap; the seed makes the sample deterministic.
        for kind in [StructureKind::Queue, StructureKind::Stack] {
            let mut cfg = SweepCfg::new(kind, AlgoKind::TrackingComb);
            cfg.pool_bytes = 4 << 20;
            cfg.script_len = 8;
            cfg.sample = 0.35;
            cfg.adversary = AdversaryKind::Seeded;
            let report = run_sweep(&cfg);
            assert!(report.total_events > 0, "{kind:?} sweep saw no pwb events");
            assert!(report.ok(), "{kind:?} violations: {:?}", report.violations);
        }
    }

    #[test]
    fn traced_rerun_renders_a_site_attributed_window() {
        use crate::subject::ExchangerSubject;
        let mut cfg = SweepCfg::new(StructureKind::Exchanger, AlgoKind::Tracking);
        cfg.pool_bytes = 4 << 20;
        let entry = entry_of(&cfg);
        let script = ExchangerSubject::script(cfg.seed, cfg.script_len, ScriptFor::Sweep);
        let case = case_of::<ExchangerSubject>(&cfg, script, move |p, d| entry.subject(p, d));
        let p = case.run_point(&cfg, 5, true);
        assert!(p.crashed);
        assert!(!p.trace_tail.is_empty(), "traced rerun must keep a window");
        assert!(
            p.trace_tail.iter().all(|l| l.contains("seq")),
            "window lines carry sequence numbers: {:?}",
            p.trace_tail
        );
    }

    #[test]
    fn failure_report_renders_every_ingredient() {
        let r = FailureReport {
            k: 17,
            op_index: 3,
            op: "Insert(7)".into(),
            detail: "detectability: recovered response false, model says true".into(),
            trace_tail: vec!["seq 41 t0 pwb line 9 word 76 dirty  site 2 (insert)".into()],
        };
        let text = r.render();
        assert!(text.contains("k=17"));
        assert!(text.contains("op[3] = Insert(7)"));
        assert!(text.contains("model says true"));
        assert!(text.contains("site 2 (insert)"));
        assert_eq!(csv_escape("a,b\nc"), "a;b c");
    }

    #[test]
    fn engines_agree_under_full_paranoia() {
        // Every point of the exchanger sweep cross-checked: scratch and
        // checkpointed replays must produce identical verdicts and
        // identical pre-crash event streams (seq, kind, site, addr, dirty).
        let mut cfg = SweepCfg::new(StructureKind::Exchanger, AlgoKind::Tracking);
        cfg.pool_bytes = 4 << 20;
        cfg.paranoia = 1.0;
        let ck = run_sweep(&cfg);
        assert!(ck.ok(), "violations: {:?}", ck.violations);
        assert_eq!(ck.paranoia_checked, ck.points_run);

        let scratch = run_sweep(&SweepCfg {
            checkpoint: false,
            paranoia: 0.0,
            ..cfg
        });
        assert!(scratch.ok());
        assert_eq!(ck.total_events, scratch.total_events);
        assert_eq!(ck.points_run, scratch.points_run);
    }

    #[test]
    fn palloc_sweep_is_clean_under_full_paranoia() {
        // The allocator's own crash sweep: every alloc/retire/drain step
        // crashed, recovered, heap audited — under cross-checked engines.
        let mut cfg = SweepCfg::new(StructureKind::Exchanger, AlgoKind::Tracking);
        cfg.pool_bytes = 4 << 20;
        cfg.script_len = 10;
        cfg.paranoia = 1.0;
        let r = run_palloc_sweep(&cfg);
        assert_eq!(r.label, "churn_palloc");
        assert!(r.total_events > 0);
        assert_eq!(r.points_run, r.total_events);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert!(r.summary().contains("churn_palloc"));
    }

    #[test]
    fn palloc_sweep_survives_the_seeded_adversary() {
        let mut cfg = SweepCfg::new(StructureKind::Exchanger, AlgoKind::Tracking);
        cfg.pool_bytes = 4 << 20;
        cfg.script_len = 10;
        cfg.adversary = AdversaryKind::Seeded;
        let r = run_palloc_sweep(&cfg);
        assert!(r.ok(), "violations: {:?}", r.violations);
    }

    #[test]
    fn reclaim_queue_sweep_is_clean_and_adds_drain_events() {
        let mut cfg = SweepCfg::new(StructureKind::Queue, AlgoKind::Tracking);
        cfg.pool_bytes = 4 << 20;
        cfg.script_len = 8;
        let plain = run_sweep(&cfg);
        cfg.reclaim = true;
        let churn = run_sweep(&cfg);
        assert!(plain.ok(), "violations: {:?}", plain.violations);
        assert!(churn.ok(), "violations: {:?}", churn.violations);
        assert_eq!(churn.label, "churn_queue_tracking");
        assert!(
            churn.total_events > plain.total_events,
            "retire + boundary drains must appear in the enumeration \
             ({} vs {})",
            churn.total_events,
            plain.total_events
        );
    }

    #[test]
    fn multi_crash_tier_survives_crashes_inside_recovery() {
        // Every first crash point of the exchanger sweep gets two further
        // crashes injected *inside recovery*; each twice-interrupted
        // operation must still produce its exactly-once response and a
        // linearizable history. Deterministic: a second run reproduces the
        // CSV bit for bit.
        let mut cfg = SweepCfg::new(StructureKind::Exchanger, AlgoKind::Tracking);
        cfg.pool_bytes = 4 << 20;
        cfg.multi_crash = 2;
        let r = run_sweep(&cfg);
        assert!(r.ok(), "violations: {:?}", r.violations);
        assert_eq!(r.label, "recrash_exchanger_tracking");
        assert_eq!(
            r.recrash_checked,
            2 * r.points_run,
            "every replayed point must inject exactly multi_crash second crashes"
        );
        assert!(r.summary().contains("recrash="));
        let again = run_sweep(&cfg);
        assert_eq!(r.csv.to_text(), again.csv.to_text());

        // The tier must not disturb the classic sweep: same points, same
        // event count with the knob off.
        let classic = run_sweep(&SweepCfg {
            multi_crash: 0,
            ..cfg
        });
        assert_eq!(classic.total_events, r.total_events);
        assert!(classic.ok());
    }

    #[test]
    fn multi_crash_tier_is_clean_on_a_reclaim_list() {
        // Double crashes over a reclaim pool: the second crash can land
        // inside recover_allocator or a drain step, and the re-run recovery
        // plus allocator audit must still come back clean. Sampled to keep
        // the test cheap.
        let mut cfg = SweepCfg::new(StructureKind::List, AlgoKind::Tracking);
        cfg.pool_bytes = 8 << 20;
        cfg.script_len = 8;
        cfg.sample = 0.2;
        cfg.reclaim = true;
        cfg.multi_crash = 2;
        cfg.adversary = AdversaryKind::Seeded;
        let r = run_sweep(&cfg);
        assert_eq!(r.label, "recrash_churn_list_tracking");
        assert!(r.points_run > 0);
        assert!(r.recrash_checked > 0);
        assert!(r.ok(), "violations: {:?}", r.violations);
    }

    #[test]
    fn exhausted_count_run_is_classified_not_a_panic() {
        // A script that provably overruns the arena: the sweep must return
        // a report whose single violation carries the pool's capacity
        // message, instead of unwinding out of the harness.
        let mut cfg = SweepCfg::new(StructureKind::Queue, AlgoKind::Tracking);
        cfg.pool_bytes = 1 << 20;
        cfg.script_len = 30_000;
        cfg.sample = 0.0;
        let r = run_sweep(&cfg);
        assert!(!r.ok());
        assert_eq!(r.total_events, 0);
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert!(v.exhausted);
        assert!(!v.ok());
        assert!(
            v.note.contains(pmem::EXHAUSTED_PREFIX),
            "note must carry the actionable message: {}",
            v.note
        );
    }

    #[test]
    fn masked_site_is_invisible_to_enumeration() {
        // Disabling a pwb site removes exactly its events from the crash
        // point space. pwb(CP_q) fires once per queue op — in the system's
        // CP_q := 0 step; the lean prologue stores CP_q := 1 without a
        // flush of its own — so masking S_CP shrinks N by exactly one per
        // scripted operation.
        let mut cfg = SweepCfg::new(StructureKind::Queue, AlgoKind::Tracking);
        cfg.pool_bytes = 4 << 20;
        cfg.sample = 0.0; // count only
        let full = run_sweep(&cfg);
        cfg.site_mask = !(1 << tracking::sites::S_CP.0);
        let masked = run_sweep(&cfg);
        assert_eq!(
            full.total_events - masked.total_events,
            cfg.script_len as u64,
            "the pwb(CP_q) of every op must vanish from the enumeration"
        );
    }

    #[test]
    fn sweeps_report_an_unflushed_rd() {
        // The verdict can fail: without the pwb of `RD_q` a crash can lose
        // the descriptor pointer `Op.Recover` reads, and the default and
        // scripted sweeps alike must say so.
        use crate::subject::SetSubject;
        use linearize::SetOp;
        let masked = |structure| SweepCfg {
            pool_bytes: 4 << 20,
            site_mask: !(1 << tracking::sites::S_RD.0),
            ..SweepCfg::new(structure, AlgoKind::Tracking)
        };
        let insert = [2, 4, 6, 3].map(SetOp::Insert).to_vec();
        for r in [
            run_sweep(&masked(StructureKind::List)),
            run_sweep(&masked(StructureKind::Queue)),
            run_sweep_script::<SetSubject>(&masked(StructureKind::List), insert),
        ] {
            assert!(
                !r.ok() && r.first_failure.is_some(),
                "{}: {} points passed with pwb(RD_q) masked",
                r.label,
                r.points_run
            );
        }
    }

    #[test]
    fn sharding_partitions_the_points() {
        let mut cfg = SweepCfg::new(StructureKind::Exchanger, AlgoKind::Tracking);
        cfg.pool_bytes = 4 << 20;
        cfg.shard_count = 3;
        let mut run = 0;
        for i in 0..3 {
            cfg.shard_index = i;
            let r = run_sweep(&cfg);
            assert!(r.ok());
            run += r.points_run;
        }
        let full = run_sweep(&SweepCfg {
            shard_count: 1,
            ..cfg
        });
        assert_eq!(run, full.points_run, "shards must cover every point");
        assert_eq!(run, full.total_events);
    }
}
