//! The persistent-memory pool: allocation, word primitives, persistence
//! instructions, and simulated crashes.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLock};

use crate::addr::{PAddr, WORDS_PER_LINE};
use crate::crash::CrashCtl;
use crate::epoch::{new_epoch, Epoch, EP_CRASH, EP_LINT, EP_MASK, EP_SCHED, EP_SHADOW, EP_TRACE};
use crate::lint::{FlushLint, LineState, LintReport};
use crate::persist::{self, Backend, SiteId, SiteMask, MAX_SITES};
use crate::shadow::{CrashAdversary, LineSnap, ShadowMem};
use crate::stats::{Stats, StatsSnapshot};
use crate::trace::{trace_tid, EventKind, Trace, TraceSnapshot, NO_SITE};

/// Epoch bits that force `load` off its fast path. Lint ignores reads, so
/// only crash injection, the trace and the scheduler are relevant.
const EP_LOAD_SLOW: u64 = EP_CRASH | EP_TRACE | EP_SCHED;
/// Epoch bits that force `store`/`cas` off their fast paths (the lint
/// tracks writes).
const EP_DATA_SLOW: u64 = EP_CRASH | EP_TRACE | EP_LINT | EP_SCHED;
/// Epoch bits that force `pwb`/`pfence`/`psync` off their fast paths (the
/// shadow crash model additionally hooks persistence instructions).
const EP_PERSIST_SLOW: u64 = EP_CRASH | EP_TRACE | EP_LINT | EP_SHADOW | EP_SCHED;

/// Number of root-directory cells (each on its own cache line).
pub const NUM_ROOTS: usize = 16;

/// Pool construction parameters.
///
/// Two presets cover the common cases — [`PoolCfg::model`] for crash-model
/// tests (shadow memory on, persistence instructions free) and
/// [`PoolCfg::perf`] for timed runs (real cache-line flushes, no shadow) —
/// and struct-update syntax layers the observers on top:
///
/// ```
/// use pmem::{PmemPool, PoolCfg, PessimistAdversary, SiteId};
/// let pool = PmemPool::new(PoolCfg {
///     trace: true, // record every instrumented event
///     lint: true,  // flag misplaced persistence instructions
///     ..PoolCfg::model(8 << 20)
/// });
/// let a = pool.alloc_lines(1);
/// pool.store(a, 5);
/// pool.pwb(a, SiteId(0));
/// pool.psync();
/// pool.crash(&mut PessimistAdversary); // Model mode: crashes resolvable
/// assert_eq!(pool.load(a), 5, "flushed-and-synced store survives");
/// assert!(pool.lint_report().is_clean());
/// ```
#[derive(Clone, Debug)]
pub struct PoolCfg {
    /// Pool capacity in bytes (rounded up to whole cache lines).
    pub capacity: usize,
    /// Persistence-instruction behaviour (see [`Backend`]).
    pub backend: Backend,
    /// Enable the shadow-memory crash model (Model mode). Doubles memory
    /// use and adds bookkeeping to `pwb`/`psync`; meant for tests, not for
    /// performance runs.
    pub shadow: bool,
    /// Number of per-thread recovery slots (`CP_q`/`RD_q` lines) to reserve.
    pub max_threads: usize,
    /// Start with the persistence-event trace enabled (see [`crate::trace`]).
    /// Can be toggled later with [`PmemPool::set_trace_enabled`].
    pub trace: bool,
    /// Start with the flush lint enabled (see [`crate::lint`]). Can be
    /// toggled later with [`PmemPool::set_lint_enabled`].
    pub lint: bool,
    /// Per-thread event-ring capacity for the trace (oldest events are
    /// dropped beyond this; see [`TraceSnapshot::dropped`]).
    pub trace_capacity: usize,
    /// Enable the recoverable free-list allocator (see [`crate::palloc`]):
    /// reserves one persistent metadata line per thread, makes
    /// [`PmemPool::palloc_lines`] recycle retired blocks, and arms the
    /// deferred-reclamation machinery. Off by default — without it the pool
    /// is the paper's pure bump arena and allocation stays free of
    /// instrumented events.
    pub reclaim: bool,
    /// Ignored. It armed the retired flush-elision layer and is kept only
    /// because the KV benchmark still builds a flushopt twin; that twin now
    /// measures the plain pool. Remove it once the benchmark drops the twin.
    pub flushopt: bool,
}

impl Default for PoolCfg {
    fn default() -> Self {
        PoolCfg {
            capacity: 64 << 20,
            backend: Backend::Clflush,
            shadow: false,
            max_threads: crate::thread::MAX_THREADS,
            trace: false,
            lint: false,
            trace_capacity: 4096,
            reclaim: false,
            flushopt: false,
        }
    }
}

impl PoolCfg {
    /// Small shadowed pool with no-op persistence backend: the standard
    /// configuration for crash-model tests.
    pub fn model(capacity: usize) -> Self {
        PoolCfg {
            capacity,
            backend: Backend::Noop,
            shadow: true,
            ..Default::default()
        }
    }

    /// Performance configuration with real cache-line flushes.
    pub fn perf(capacity: usize) -> Self {
        PoolCfg {
            capacity,
            backend: Backend::Clflush,
            shadow: false,
            ..Default::default()
        }
    }
}

/// Allocates a zero-initialized `AtomicU64` slice without touching every
/// page up front (the OS maps zero pages lazily), so multi-GiB pools are
/// cheap until used.
pub(crate) fn alloc_zeroed_atomics(n: usize) -> Box<[AtomicU64]> {
    use std::alloc::{alloc_zeroed, Layout};
    let layout = Layout::array::<AtomicU64>(n).expect("pool too large");
    // SAFETY: AtomicU64 is a transparent wrapper over u64 with no drop glue;
    // the all-zero bit pattern is a valid AtomicU64. The Box takes ownership
    // of the allocation with the exact layout it was allocated with.
    unsafe {
        let ptr = alloc_zeroed(layout) as *mut AtomicU64;
        assert!(!ptr.is_null(), "pool allocation failed ({n} words)");
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, n))
    }
}

/// A simulated persistent main memory (see crate docs).
///
/// All methods take `&self`; a pool is shared across threads behind an
/// `Arc`. Word reads/writes/CAS are the paper's base-object primitives;
/// [`PmemPool::pwb`], [`PmemPool::pfence`] and [`PmemPool::psync`] are the
/// persistence instructions.
pub struct PmemPool {
    words: Box<[AtomicU64]>,
    next: AtomicUsize,
    backend: Backend,
    shadow: Option<ShadowMem>,
    stats: Stats,
    mask: SiteMask,
    crash_ctl: CrashCtl,
    recovery_base: usize, // first word of the per-thread recovery table
    /// First word of the per-thread allocator metadata table (equals
    /// `heap_base` when the pool was built without `reclaim`).
    pub(crate) palloc_base: usize,
    /// First allocatable heap word (everything below is reserved layout).
    pub(crate) heap_base: usize,
    /// Free-list allocator armed at construction ([`PoolCfg::reclaim`]).
    pub(crate) reclaim: bool,
    /// Volatile count of cache lines currently sitting on class free lists
    /// (not limbo — those are not yet allocatable). Maintained conservatively
    /// for [`Self::remaining_lines`]: decremented *before* a pop takes
    /// effect, incremented only once a drain's splice is durable, and
    /// recomputed from the free heads' counts at the quiescent points
    /// (`restore`/`crash`/recovery).
    pub(crate) free_lines: AtomicUsize,
    /// Volatile tail hints of the limbo lists, one per thread and size
    /// class (0 = unknown): the block a retire pushed onto an empty limbo
    /// list. A drain that has one splices without walking the list; the
    /// quiescent points that rebuild `free_lines` forget them all. Relaxed
    /// suffices: a drain runs only at a quiescent point, and whatever
    /// makes it quiescent (a barrier, a join) orders the retire's hint
    /// store before the drain's read.
    pub(crate) limbo_tails: Box<[AtomicU64]>,
    /// Debug-only ledger of retired-but-not-yet-quiescent block addresses,
    /// used to assert that no address is re-issued before a full epoch
    /// quiescence (see `palloc`).
    #[cfg(debug_assertions)]
    pub(crate) retired_debug: std::sync::Mutex<std::collections::HashSet<u64>>,
    max_threads: usize,
    trace: Trace,
    lint: FlushLint,
    /// The fused instrumentation epoch (see [`crate::epoch`]): one relaxed
    /// load of this word answers every "do I need the slow path?" question
    /// a primitive has — crash injection armed, trace on, lint on, shadow
    /// model present. The [`CrashCtl`] shares it (to clear [`EP_CRASH`] on
    /// auto-disarm); the observer toggles maintain the trace/lint bits.
    epoch: Epoch,
    /// Read-mostly: registered once by algorithm constructors, then read on
    /// every report/attribution path. An `RwLock` lets concurrent report
    /// rendering proceed without serializing on registration.
    site_names: RwLock<[Option<&'static str>; MAX_SITES]>,
}

impl PmemPool {
    /// Creates a pool per `cfg`. Layout: line 0 reserved (null), then
    /// [`NUM_ROOTS`] root lines, then `cfg.max_threads` recovery lines,
    /// then (with [`PoolCfg::reclaim`]) `cfg.max_threads` allocator
    /// metadata lines, then the allocatable heap.
    ///
    /// # Panics
    /// If a `reclaim` pool has 2³² or more lines: the allocator's counted
    /// list heads hold a line index and a length in 32 bits each.
    pub fn new(cfg: PoolCfg) -> Self {
        let recovery_base = (1 + NUM_ROOTS) * WORDS_PER_LINE;
        let palloc_base = recovery_base + cfg.max_threads * WORDS_PER_LINE;
        let heap_base = palloc_base
            + if cfg.reclaim {
                cfg.max_threads * WORDS_PER_LINE
            } else {
                0
            };
        let nwords = (cfg.capacity / 8)
            .next_multiple_of(WORDS_PER_LINE)
            .max(heap_base + 16 * WORDS_PER_LINE);
        assert!(
            !cfg.reclaim || nwords / WORDS_PER_LINE <= crate::palloc::MAX_RECLAIM_LINES,
            "a reclaiming pool holds at most {} lines (palloc's counted heads)",
            crate::palloc::MAX_RECLAIM_LINES
        );
        let words = alloc_zeroed_atomics(nwords);
        let reclaim = cfg.reclaim;
        let tails = if reclaim {
            cfg.max_threads * crate::MAX_CLASS
        } else {
            0
        };
        let epoch = new_epoch(
            if cfg.trace { EP_TRACE } else { 0 }
                | if cfg.lint { EP_LINT } else { 0 }
                | if cfg.shadow { EP_SHADOW } else { 0 },
        );
        let pool = PmemPool {
            words,
            next: AtomicUsize::new(heap_base),
            backend: cfg.backend,
            shadow: if cfg.shadow {
                Some(ShadowMem::new(nwords))
            } else {
                None
            },
            stats: Stats::new(),
            mask: SiteMask::all_on(),
            crash_ctl: CrashCtl::with_epoch(epoch.clone()),
            recovery_base,
            palloc_base,
            heap_base,
            reclaim: cfg.reclaim,
            free_lines: AtomicUsize::new(0),
            limbo_tails: (0..tails).map(|_| AtomicU64::new(0)).collect(),
            #[cfg(debug_assertions)]
            retired_debug: std::sync::Mutex::new(std::collections::HashSet::new()),
            max_threads: cfg.max_threads,
            trace: Trace::new(cfg.trace_capacity, cfg.trace),
            lint: FlushLint::new(cfg.lint, nwords / WORDS_PER_LINE),
            epoch,
            site_names: RwLock::new([None; MAX_SITES]),
        };
        if reclaim {
            pool.register_site_names(&crate::palloc::PALLOC_SITES);
        }
        pool
    }

    /// Address of root cell `i` (data-structure entry points). Each root
    /// occupies its own cache line.
    pub fn root(&self, i: usize) -> PAddr {
        assert!(i < NUM_ROOTS, "root index out of range");
        PAddr(((1 + i) * WORDS_PER_LINE) as u64)
    }

    /// Address of thread `tid`'s recovery line (`CP_q` at word 0, `RD_q` at
    /// word 1; the rest of the line is padding against false sharing).
    pub fn recovery_line(&self, tid: usize) -> PAddr {
        assert!(
            tid < self.max_threads,
            "tid {tid} >= max_threads {}",
            self.max_threads
        );
        PAddr((self.recovery_base + tid * WORDS_PER_LINE) as u64)
    }

    /// Number of recovery slots reserved at construction.
    pub fn max_threads(&self) -> usize {
        self.max_threads
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Line-aligned bump allocation of `nlines` cache lines; the memory is
    /// zeroed. Returns `None` when the pool is exhausted.
    ///
    /// The bump arena itself never recycles memory; a bump address is
    /// always fresh. On a pool built **without** [`PoolCfg::reclaim`] this
    /// is the only allocation path, the arena stands in for the garbage
    /// collector the paper assumes (see crate docs), and ABA from address
    /// reuse is ruled out by construction. On a pool built **with**
    /// `reclaim`, [`Self::palloc_lines`] layers per-size-class free lists
    /// on top of this arena and *does* re-issue retired addresses — but
    /// only after a full epoch quiescence ([`Self::palloc_drain`] moves
    /// blocks from limbo to the free lists solely at quiescent points, and
    /// a debug assertion in the pop path checks that no still-retired
    /// address is ever handed out). The bump pointer lives outside pmem but
    /// is monotone, which is equivalent to persisting the watermark on
    /// every allocation.
    ///
    /// When the calling thread has a [`crate::arena::SubArena`] installed
    /// for this pool ([`crate::arena::install_thread_arena`]), the request
    /// is served from the thread's private chunk instead, and the global
    /// cursor is only touched on chunk refills. Arena chunks are carved
    /// from this same cursor, so the never-issued-twice property is
    /// unchanged (see the `arena` module docs).
    pub fn try_alloc_lines(&self, nlines: usize) -> Option<PAddr> {
        if let Some(served) = crate::arena::thread_arena_alloc(self, nlines) {
            return served;
        }
        self.try_alloc_lines_global(nlines)
    }

    /// The shared bump path: CAS-advances the global cursor. Arena refills
    /// come here directly so a refill is never re-routed to the arena.
    pub(crate) fn try_alloc_lines_global(&self, nlines: usize) -> Option<PAddr> {
        let need = nlines * WORDS_PER_LINE;
        let mut cur = self.next.load(Ordering::Relaxed);
        loop {
            if cur + need > self.words.len() {
                return None;
            }
            match self.next.compare_exchange_weak(
                cur,
                cur + need,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(PAddr(cur as u64)),
                Err(c) => cur = c,
            }
        }
    }

    /// Like [`Self::try_alloc_lines`] but panics on exhaustion with an
    /// actionable message.
    pub fn alloc_lines(&self, nlines: usize) -> PAddr {
        self.try_alloc_lines(nlines).unwrap_or_else(|| {
            panic!(
                "pmem pool exhausted ({} words): increase PoolCfg.capacity or shorten the run",
                self.words.len()
            )
        })
    }

    /// A consistent **lower bound** on the cache lines still available for
    /// allocation: the untouched bump region plus every block currently on
    /// a class free list (limbo blocks are excluded — they only become
    /// allocatable at the next quiescence).
    ///
    /// Guarantee: the returned value never exceeds the number of lines that
    /// could actually be allocated at the instant of the call, even under
    /// concurrent allocation. The bump component uses a `SeqCst` load of a
    /// monotone cursor (so it can only under-report a racing bump), and the
    /// free-list component is a counter that is decremented *before* a pop
    /// takes effect and incremented only once a splice is durable — a racing
    /// reader can miss a block in flight, never count one twice.
    pub fn remaining_lines(&self) -> usize {
        let next = self.next.load(Ordering::SeqCst).min(self.words.len());
        let bump = (self.words.len() - next) / WORDS_PER_LINE;
        bump + self.free_lines.load(Ordering::SeqCst)
    }

    /// Total pool size in words (allocation limit).
    pub(crate) fn nwords(&self) -> usize {
        self.words.len()
    }

    /// Current bump-allocation watermark in words.
    pub(crate) fn alloc_watermark(&self) -> usize {
        self.next.load(Ordering::SeqCst)
    }

    /// Cache lines the bump arena has handed out so far. On a `reclaim`
    /// pool each of them is in use, on a free or limbo list, or leaked.
    pub fn issued_lines(&self) -> usize {
        (self.alloc_watermark() - self.heap_base) / WORDS_PER_LINE
    }

    /// Uninstrumented word read: no crash tick, no trace event, no yield.
    /// For harness-internal walks (allocator audits, accounting refresh)
    /// that must be invisible to crash-point enumeration and replay
    /// streams.
    #[inline]
    pub(crate) fn raw_load(&self, w: usize) -> u64 {
        self.words[w].load(Ordering::Acquire)
    }

    /// Uninstrumented zeroing of `[start, start + n)` words: not a traced
    /// event. Durability is the caller's problem: the zeros reach the
    /// persisted image only through the caller's own `pwb`/`pfence` of
    /// those lines.
    pub(crate) fn raw_zero_words(&self, start: usize, n: usize) {
        for w in start..start + n {
            self.words[w].store(0, Ordering::Release);
        }
    }

    // ------------------------------------------------------------------
    // Word primitives (read / write / CAS)
    // ------------------------------------------------------------------

    /// One relaxed load of the fused instrumentation epoch, masked down to
    /// the bits the calling primitive cares about. Relaxed is sufficient:
    /// every bit is a harness-level control (arm a crash, enable an
    /// observer) that is always flipped *before* the workload it governs
    /// starts, on the same thread or across a spawn/join edge that already
    /// synchronizes — the epoch never carries data-dependent state between
    /// racing operations, so no primitive's correctness rests on seeing a
    /// flip "in time".
    #[inline]
    fn epoch_bits(&self, mask: u64) -> u64 {
        self.epoch.load(Ordering::Relaxed) & mask
    }

    /// Atomic read of a word (acquire).
    #[inline]
    pub fn load(&self, a: PAddr) -> u64 {
        let bits = self.epoch_bits(EP_LOAD_SLOW);
        if bits == 0 {
            return self.words[a.word()].load(Ordering::Acquire);
        }
        self.load_slow(a, bits)
    }

    #[inline(never)]
    fn load_slow(&self, a: PAddr, bits: u64) -> u64 {
        // Yield before the tick: the scheduler decides who runs this event,
        // and an armed crash must fire on whichever thread it granted.
        if bits & EP_SCHED != 0 {
            crate::sched::yield_now();
        }
        if bits & EP_CRASH != 0 {
            self.crash_ctl.tick();
        }
        let v = self.words[a.word()].load(Ordering::Acquire);
        if bits & EP_TRACE != 0 {
            self.observe_load(a);
        }
        v
    }

    /// Atomic write of a word (release). Under TSO (x86) writes become
    /// visible in program order, matching the paper's model.
    #[inline]
    pub fn store(&self, a: PAddr, v: u64) {
        self.store_raw(a, v, NO_SITE);
    }

    /// [`Self::store`] attributed to a call site, so trace events and lint
    /// findings about the written line name the code that dirtied it.
    ///
    /// ```
    /// use pmem::{EventKind, PmemPool, PoolCfg, SiteId};
    /// let pool = PmemPool::new(PoolCfg { trace: true, ..PoolCfg::model(1 << 20) });
    /// pool.register_site_names(&[(SiteId(3), "result-field")]);
    /// let a = pool.alloc_lines(1);
    /// pool.store_at(a, 9, SiteId(3));
    /// let e = pool.trace_snapshot().events[0];
    /// assert_eq!((e.kind, e.site), (EventKind::Store, 3));
    /// assert_eq!(pool.site_name(SiteId(3)), Some("result-field"));
    /// ```
    #[inline]
    pub fn store_at(&self, a: PAddr, v: u64, site: SiteId) {
        self.store_raw(a, v, site.0);
    }

    #[inline]
    fn store_raw(&self, a: PAddr, v: u64, site: u8) {
        let bits = self.epoch_bits(EP_DATA_SLOW);
        if bits == 0 {
            self.words[a.word()].store(v, Ordering::Release);
            return;
        }
        self.store_slow(a, v, site, bits);
    }

    #[inline(never)]
    fn store_slow(&self, a: PAddr, v: u64, site: u8, bits: u64) {
        if bits & EP_SCHED != 0 {
            crate::sched::yield_now();
        }
        if bits & EP_CRASH != 0 {
            self.crash_ctl.tick();
        }
        self.words[a.word()].store(v, Ordering::Release);
        if bits & (EP_TRACE | EP_LINT) != 0 {
            self.observe_write(a, EventKind::Store, site);
        }
    }

    /// Atomic compare-and-swap. Returns `Ok(old)` on success and `Err(seen)`
    /// on failure. On x86 this compiles to `lock cmpxchg`, which serializes
    /// outstanding stores — the very effect behind the paper's finding that
    /// `psync` cost is negligible in CAS-heavy code (Section 5).
    #[inline]
    pub fn cas(&self, a: PAddr, old: u64, new: u64) -> Result<u64, u64> {
        self.cas_raw(a, old, new, NO_SITE)
    }

    /// [`Self::cas`] attributed to a call site (see [`Self::store_at`]).
    /// Failed CASes are recorded too ([`EventKind::CasFail`]) — they tick
    /// the crash countdown and appear in the trace, but write nothing.
    ///
    /// ```
    /// use pmem::{EventKind, PmemPool, PoolCfg, SiteId};
    /// let pool = PmemPool::new(PoolCfg { trace: true, ..PoolCfg::model(1 << 20) });
    /// let a = pool.alloc_lines(1);
    /// assert_eq!(pool.cas_at(a, 0, 7, SiteId(5)), Ok(0));
    /// assert_eq!(pool.cas_at(a, 0, 9, SiteId(5)), Err(7));
    /// let kinds: Vec<_> = pool.trace_snapshot().events.iter().map(|e| e.kind).collect();
    /// assert_eq!(kinds, [EventKind::Cas, EventKind::CasFail]);
    /// ```
    #[inline]
    pub fn cas_at(&self, a: PAddr, old: u64, new: u64, site: SiteId) -> Result<u64, u64> {
        self.cas_raw(a, old, new, site.0)
    }

    #[inline]
    fn cas_raw(&self, a: PAddr, old: u64, new: u64, site: u8) -> Result<u64, u64> {
        let bits = self.epoch_bits(EP_DATA_SLOW);
        if bits == 0 {
            return self.words[a.word()].compare_exchange(
                old,
                new,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        self.cas_slow(a, old, new, site, bits)
    }

    #[inline(never)]
    fn cas_slow(&self, a: PAddr, old: u64, new: u64, site: u8, bits: u64) -> Result<u64, u64> {
        if bits & EP_SCHED != 0 {
            crate::sched::yield_now();
        }
        if bits & EP_CRASH != 0 {
            self.crash_ctl.tick();
        }
        let r = self.words[a.word()].compare_exchange(old, new, Ordering::SeqCst, Ordering::SeqCst);
        if bits & (EP_TRACE | EP_LINT) != 0 {
            self.observe_cas(a, new, r.is_ok(), site);
        }
        r
    }

    // ------------------------------------------------------------------
    // Persistence instructions
    // ------------------------------------------------------------------

    /// `pwb`: initiates write-back of the cache line containing `a`,
    /// attributed to call site `site`. A disabled site is a no-op that is
    /// not counted — the site's code line has been "removed" in the paper's
    /// categorization methodology.
    ///
    /// The mask check comes **before** the crash-injection tick: a disabled
    /// site must be completely invisible to crash-point enumeration (it
    /// neither ticks, counts, traces, nor flushes), so sweeps over a masked
    /// workload see exactly the events the masked program would execute.
    #[inline]
    pub fn pwb(&self, a: PAddr, site: SiteId) {
        let bits = self.epoch_bits(EP_PERSIST_SLOW | EP_MASK);
        if bits == 0 {
            self.stats.count_pwb(site);
            self.pwb_backend(a);
            return;
        }
        self.pwb_slow(a, site, bits);
    }

    #[inline(never)]
    fn pwb_slow(&self, a: PAddr, site: SiteId, bits: u64) {
        // Mask check first, then the tick: a disabled site is invisible to
        // crash-point enumeration, and a crash firing at this event must
        // leave the pwb entirely unexecuted (not counted, not flushed,
        // not snapshotted).
        if bits & EP_MASK != 0 && !self.mask.site_enabled(site) {
            return;
        }
        // After the mask check — a masked pwb is no yield point, exactly as
        // it is no crash point — and before the tick, so the scheduler
        // decides who runs the event an armed crash would land on.
        if bits & EP_SCHED != 0 {
            crate::sched::yield_now();
        }
        if bits & EP_CRASH != 0 {
            self.crash_ctl.tick();
        }
        self.stats.count_pwb(site);
        self.pwb_backend(a);
        if bits & EP_SHADOW != 0 {
            if let Some(sh) = &self.shadow {
                sh.pwb(&self.words, a.line());
            }
        }
        if bits & (EP_TRACE | EP_LINT) != 0 {
            self.observe_pwb(a, site);
        }
    }

    #[inline]
    fn pwb_backend(&self, a: PAddr) {
        match self.backend {
            Backend::Clflush => {
                let line_base = a.line() * WORDS_PER_LINE;
                persist::hw_flush(self.words[line_base..].as_ptr() as *const u8);
            }
            Backend::Noop => {}
        }
    }

    /// `pwb` over a `nwords`-long object: one flush per covered line.
    #[inline]
    pub fn pwb_range(&self, a: PAddr, nwords: usize, site: SiteId) {
        let first = a.line();
        let last = PAddr(a.raw() + nwords.max(1) as u64 - 1).line();
        for line in first..=last {
            self.pwb(PAddr((line * WORDS_PER_LINE) as u64), site);
        }
    }

    /// `pfence`: orders preceding `pwb`s before subsequent ones. Like the
    /// paper's testbed (whose machine lacks a distinct `pfence`), it is
    /// implemented exactly as `psync`.
    #[inline]
    pub fn pfence(&self) {
        let bits = self.epoch_bits(EP_PERSIST_SLOW | EP_MASK);
        if bits == 0 {
            self.stats.count_pfence();
            self.fence_backend();
            return;
        }
        self.fence_slow(EventKind::Pfence, bits);
    }

    /// `psync`: waits until all preceding `pwb`s have reached persistent
    /// memory.
    #[inline]
    pub fn psync(&self) {
        let bits = self.epoch_bits(EP_PERSIST_SLOW | EP_MASK);
        if bits == 0 {
            self.stats.count_psync();
            self.fence_backend();
            return;
        }
        self.fence_slow(EventKind::Psync, bits);
    }

    #[inline(never)]
    fn fence_slow(&self, kind: EventKind, bits: u64) {
        // Mask check first, then the tick: a disabled fence is invisible to
        // crash-point enumeration, and a crash at this event must leave the
        // fence unexecuted (nothing committed to the shadow's persisted
        // image, not counted).
        if bits & EP_MASK != 0 && !self.mask.psync_enabled() {
            return;
        }
        if bits & EP_SCHED != 0 {
            crate::sched::yield_now();
        }
        if bits & EP_CRASH != 0 {
            self.crash_ctl.tick();
        }
        match kind {
            EventKind::Pfence => self.stats.count_pfence(),
            _ => self.stats.count_psync(),
        }
        self.fence_backend();
        if bits & EP_SHADOW != 0 {
            if let Some(sh) = &self.shadow {
                sh.psync();
            }
        }
        if bits & (EP_TRACE | EP_LINT) != 0 {
            self.observe_fence(kind);
        }
    }

    #[inline]
    fn fence_backend(&self) {
        match self.backend {
            Backend::Clflush => persist::hw_sfence(),
            Backend::Noop => {}
        }
    }

    /// `pbarrier(x)`: flush an `nwords` object and fence — the paper's
    /// shorthand for "these pwbs are ordered before whatever follows"
    /// (Algorithm 1 lines 3 and 19).
    #[inline]
    pub fn pbarrier(&self, a: PAddr, nwords: usize, site: SiteId) {
        self.pwb_range(a, nwords, site);
        self.pfence();
    }

    // ------------------------------------------------------------------
    // Instrumentation control
    // ------------------------------------------------------------------

    /// Enables/disables one `pwb` call site.
    pub fn set_site_enabled(&self, site: SiteId, on: bool) {
        self.mask.set_site(site, on);
        self.refresh_mask_epoch();
    }

    /// Replaces the whole site mask (bit *i* = site *i* enabled).
    pub fn set_sites_mask(&self, mask: u64) {
        self.mask.set_mask(mask);
        self.refresh_mask_epoch();
    }

    /// Enables/disables `psync`/`pfence` (the paper's "no psyncs" variants,
    /// Figures 3c/4c).
    pub fn set_psync_enabled(&self, on: bool) {
        self.mask.set_psync(on);
        self.refresh_mask_epoch();
    }

    /// Re-derives [`EP_MASK`] from the current mask state, so the unmasked
    /// fast paths never consult the mask at all.
    fn refresh_mask_epoch(&self) {
        let masked = self.mask.mask() != u64::MAX || !self.mask.psync_enabled();
        self.set_epoch_bit(EP_MASK, masked);
    }

    /// Snapshot of the persistence-instruction counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Zeroes the persistence-instruction counters.
    pub fn stats_reset(&self) {
        self.stats.reset();
    }

    /// Crash-injection controls (see [`CrashCtl`]).
    pub fn crash_ctl(&self) -> &CrashCtl {
        &self.crash_ctl
    }

    /// Arms or disarms the cooperative-scheduler yield points (see
    /// [`crate::sched`]): while armed, every instrumented event first calls
    /// the executing thread's registered yield hook. Threads without a hook
    /// (e.g. the main thread running recovery after an explored crash) fall
    /// straight through. Survives [`Self::restore`], so the schedule
    /// explorer arms it once per pool and rewinds freely between schedules.
    pub fn set_sched_enabled(&self, on: bool) {
        self.set_epoch_bit(EP_SCHED, on);
    }

    // ------------------------------------------------------------------
    // Observation: persistence-event trace + flush lint
    // ------------------------------------------------------------------

    /// Mirrors an observer toggle into the fused epoch word. SeqCst for the
    /// same reason as arming a crash: enabling an observer is a rare
    /// control action that must not reorder with the workload it brackets.
    fn set_epoch_bit(&self, bit: u64, on: bool) {
        if on {
            self.epoch.fetch_or(bit, Ordering::SeqCst);
        } else {
            self.epoch.fetch_and(!bit, Ordering::SeqCst);
        }
    }

    /// Enables/disables the persistence-event trace (see [`crate::trace`]).
    pub fn set_trace_enabled(&self, on: bool) {
        self.trace.set_enabled(on);
        self.set_epoch_bit(EP_TRACE, on);
    }

    /// Copies out the retained trace window, merged across threads in
    /// global sequence order.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.trace.snapshot()
    }

    /// Discards all retained trace events and resets the drop counter.
    pub fn trace_clear(&self) {
        self.trace.clear();
    }

    /// Enables/disables the flush lint (see [`crate::lint`]).
    pub fn set_lint_enabled(&self, on: bool) {
        self.lint.set_enabled(on);
        self.set_epoch_bit(EP_LINT, on);
    }

    /// Copies out the lint's findings and per-site flush counters,
    /// including one ephemeral [`crate::LintKind::UnflushedDirty`] entry per
    /// line that is dirty right now.
    pub fn lint_report(&self) -> LintReport {
        self.lint.report()
    }

    /// Forgets all lint findings, counters and tracked line state.
    pub fn lint_clear(&self) {
        self.lint.clear();
    }

    /// Registers human-readable names for call sites, used by
    /// [`Self::site_name`] and by report rendering. Algorithm crates call
    /// this from their constructors with their `sites` table; later
    /// registrations overwrite earlier ones per site.
    pub fn register_site_names(&self, names: &[(SiteId, &'static str)]) {
        let mut tbl = self
            .site_names
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        for (site, name) in names {
            tbl[site.idx()] = Some(name);
        }
    }

    /// The registered name of `site`, if any. Read-locked only: concurrent
    /// report rendering never serializes against other readers.
    pub fn site_name(&self, site: SiteId) -> Option<&'static str> {
        self.site_names
            .read()
            .unwrap_or_else(PoisonError::into_inner)[site.idx()]
    }

    /// Renders the current lint report with registered site names.
    pub fn lint_report_text(&self) -> String {
        self.lint_report().render(|s| {
            if s as usize >= MAX_SITES {
                None
            } else {
                self.site_name(SiteId(s))
            }
        })
    }

    // The observe_* fns inline into the `_slow` dispatch bodies, which are
    // `inline(never)` rather than `#[cold]`: kept out of the disabled fast
    // path's code stream, but compiled for speed — with observers on they
    // run on every event, and `cold` would switch the whole observer path
    // to size optimization.
    #[inline]
    fn observe_load(&self, a: PAddr) {
        // No `trace.enabled()` re-check: this is only reached under
        // EP_TRACE, and `set_trace_enabled` keeps flag and epoch bit in
        // lockstep at harness-quiescent points.
        let seq = self.trace.next_seq();
        let dirty = self.lint.line_dirty(a.line());
        self.trace
            .record(seq, EventKind::Load, NO_SITE, a.raw(), dirty);
    }

    #[inline]
    fn observe_write(&self, a: PAddr, kind: EventKind, site: u8) {
        let tid = trace_tid();
        let seq = self.trace.next_seq();
        let dirty = self.lint.on_write(a.line(), site, tid, seq);
        if self.trace.enabled() {
            self.trace.record(seq, kind, site, a.raw(), dirty);
        }
    }

    #[inline]
    fn observe_cas(&self, a: PAddr, new: u64, success: bool, site: u8) {
        let tid = trace_tid();
        let seq = self.trace.next_seq();
        let dirty = if success {
            self.lint.on_write(a.line(), site, tid, seq)
        } else {
            self.lint.line_dirty(a.line())
        };
        if self.trace.enabled() {
            let kind = if success {
                EventKind::Cas
            } else {
                EventKind::CasFail
            };
            self.trace.record(seq, kind, site, a.raw(), dirty);
        }
        if success {
            if let Some(target_line) = self.publish_target(new) {
                self.lint.on_publish(target_line, tid, seq);
            }
        }
    }

    /// Decodes a CAS'd value as a published pool pointer, if it looks like
    /// one: untagged, nonzero, line-aligned, inside the allocated heap. A
    /// heuristic — a plain integer can alias a line address — but the lint
    /// only flags targets it has independent evidence are unpersisted.
    fn publish_target(&self, new: u64) -> Option<usize> {
        let w = crate::addr::untagged(new) as usize;
        let heap_base = self.heap_base;
        if w == 0 || !w.is_multiple_of(WORDS_PER_LINE) || w < heap_base {
            return None;
        }
        if w >= self.next.load(Ordering::Relaxed) {
            return None;
        }
        Some(w / WORDS_PER_LINE)
    }

    #[inline]
    fn observe_pwb(&self, a: PAddr, site: SiteId) {
        let seq = self.trace.next_seq();
        let was_dirty = self.lint.on_pwb(a.line(), site, seq);
        if self.trace.enabled() {
            self.trace
                .record(seq, EventKind::Pwb, site.0, a.raw(), was_dirty);
        }
    }

    #[inline]
    fn observe_fence(&self, kind: EventKind) {
        let seq = self.trace.next_seq();
        self.lint.on_fence();
        if self.trace.enabled() {
            self.trace.record(seq, kind, NO_SITE, 0, false);
        }
    }

    // ------------------------------------------------------------------
    // Crash model
    // ------------------------------------------------------------------

    /// Resolves a simulated system-wide crash (Model mode only): every cache
    /// line's surviving content is decided by `adversary`, volatile state is
    /// re-initialized from it, and crash injection is disarmed.
    ///
    /// Requires quiescence: all worker threads must have stopped (e.g.
    /// unwound via an injected [`crate::CrashPoint`]) before this is called.
    ///
    /// # Panics
    /// If the pool was built without `shadow` (there is no crash model to
    /// consult in Perf mode).
    pub fn crash(&self, adversary: &mut dyn CrashAdversary) {
        let sh = self
            .shadow
            .as_ref()
            .expect("PmemPool::crash requires PoolCfg.shadow = true (Model mode)");
        self.crash_ctl.disarm();
        // Only lines up to the allocation watermark can differ between the
        // volatile and persisted views.
        let nlines = self.next.load(Ordering::Relaxed).div_ceil(WORDS_PER_LINE);
        sh.crash(&self.words, adversary, nlines);
        // Lines still dirty at the crash are exactly the losses the
        // adversary could pick; record them as permanent findings and reset
        // the lint's view (volatile == persisted after resolution). Both
        // matter only to the observers — a dark replay (no trace, no lint)
        // skips the walk, and the next restore re-imports the line states.
        if self.trace.enabled() || self.lint.enabled() {
            self.lint.on_crash(self.trace.next_seq());
        }
        // Crash resolution may have rewound free-list pushes/pops; rebuild
        // the volatile allocator accounting from the surviving lists.
        if self.reclaim {
            self.refresh_palloc_accounting();
        }
    }

    /// Reads the *persisted* image of a word (Model mode test introspection).
    pub fn persisted_load(&self, a: PAddr) -> u64 {
        self.shadow
            .as_ref()
            .expect("persisted_load requires Model mode")
            .persisted_load(a.word())
    }

    // ------------------------------------------------------------------
    // Snapshot / restore (checkpointed replay)
    // ------------------------------------------------------------------

    /// Exact number of trace events recorded since the last
    /// [`Self::trace_clear`] (retained plus dropped), without merging the
    /// per-thread rings. The sweep engine samples this at operation
    /// boundaries to place checkpoints.
    pub fn trace_event_total(&self) -> u64 {
        self.trace.total()
    }

    /// Captures the pool's complete persistent-memory state: the volatile
    /// word image up to the allocation watermark, the shadow's persisted
    /// image and pending `pwb` snapshots (Model mode), the allocation
    /// cursor, the site mask, and the trace sequence counter. Root cells
    /// and per-thread recovery slots live inside the word image, so they
    /// are covered automatically.
    ///
    /// Requires quiescence (no concurrent pool operations) — the intended
    /// caller is the crash-sweep engine between scripted operations.
    pub fn snapshot(&self) -> PoolSnapshot {
        let next = self.next.load(Ordering::SeqCst);
        let words: Vec<u64> = (0..next)
            .map(|i| self.words[i].load(Ordering::Acquire))
            .collect();
        let (persisted, pending) = match &self.shadow {
            Some(sh) => {
                let (p, pend) = sh.export(next);
                (Some(p), pend)
            }
            None => (None, Vec::new()),
        };
        PoolSnapshot {
            next,
            words,
            persisted,
            pending,
            lint_lines: self.lint.export_state(),
            // Checkpointing (not a plain read): returns the capturing
            // thread's banked seqs so a restored replay re-issues exactly
            // the seqs this run issues next.
            trace_seq: self.trace.seq_checkpoint(),
            sites_mask: self.mask.mask(),
            psync_on: self.mask.psync_enabled(),
        }
    }

    /// Rewinds the pool to a state captured by [`Self::snapshot`] — words,
    /// shadow images, allocation cursor, site mask and trace sequence
    /// counter. Every restore copies the snapshot's whole allocated prefix;
    /// memory the pool dirtied *after* the snapshot (words between the
    /// snapshot's and the current allocation watermark) is zeroed in both
    /// the volatile and persisted images, so re-allocation hands out
    /// freshly zeroed lines exactly as a fresh pool would. Crash injection
    /// is disarmed and the trace/lint observers are cleared (their enable
    /// flags are left alone — the caller decides what to observe next).
    ///
    /// Requires quiescence, and the snapshot must come from this pool (the
    /// allocation watermark may only have grown since it was taken).
    pub fn restore(&self, snap: &PoolSnapshot) {
        let cur_next = self.next.load(Ordering::SeqCst);
        assert!(
            snap.next <= cur_next && snap.next <= self.words.len(),
            "restore: snapshot does not belong to this pool"
        );
        for (i, w) in snap.words.iter().enumerate() {
            self.words[i].store(*w, Ordering::Release);
        }
        for i in snap.next..cur_next {
            self.words[i].store(0, Ordering::Release);
        }
        if let Some(sh) = &self.shadow {
            let persisted = snap
                .persisted
                .as_ref()
                .expect("restore: snapshot from a non-shadow pool into Model mode");
            sh.import(persisted, &snap.pending, cur_next);
        }
        self.next.store(snap.next, Ordering::SeqCst);
        self.mask.set_mask(snap.sites_mask);
        self.mask.set_psync(snap.psync_on);
        self.refresh_mask_epoch();
        self.crash_ctl.disarm();
        // Findings and counters reset, but the line-state machine is put
        // back exactly as captured: it feeds the `dirty` annotation of
        // traced events, and a replay from this checkpoint must reproduce
        // the original timeline's annotations byte for byte.
        self.lint.clear();
        self.lint.import_state(&snap.lint_lines);
        self.trace.clear();
        self.trace.set_seq(snap.trace_seq);
        // The restored image carries its own free lists and limbo lists;
        // rebuild the volatile allocator accounting to match.
        if self.reclaim {
            self.refresh_palloc_accounting();
        }
    }
}

/// The stable prefix of the panic message [`PmemPool::alloc_lines`] raises
/// on pool exhaustion, for payload classification.
pub const EXHAUSTED_PREFIX: &str = "pmem pool exhausted";

/// Recognizes a pool-exhaustion panic payload (the panic raised by
/// [`PmemPool::alloc_lines`] when the arena is full) and returns its
/// actionable message. Harnesses use this to classify an exhausted run as
/// a capacity problem instead of an opaque worker failure:
///
/// ```
/// use pmem::{exhaustion_message, PmemPool, PoolCfg};
/// let p = PmemPool::new(PoolCfg::model(0)); // minimum-size pool
/// while p.try_alloc_lines(1).is_some() {}
/// let err = std::panic::catch_unwind(|| p.alloc_lines(1)).unwrap_err();
/// assert!(exhaustion_message(err.as_ref()).unwrap().contains("capacity"));
/// ```
pub fn exhaustion_message(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())?;
    msg.starts_with(EXHAUSTED_PREFIX).then_some(msg)
}

/// A point-in-time copy of a pool's full persistent state (see
/// [`PmemPool::snapshot`]). Opaque outside the crate; the sweep engine
/// stores these as replay checkpoints.
pub struct PoolSnapshot {
    /// Allocation cursor (words) at capture time.
    next: usize,
    /// Volatile word image `[0, next)`.
    words: Vec<u64>,
    /// Shadow persisted image `[0, next)` (Model mode pools only).
    persisted: Option<Vec<u64>>,
    /// Shadow pending `pwb` snapshots, sorted by line.
    pending: Vec<(usize, LineSnap)>,
    /// Flush-lint line states, sorted by line (feeds trace `dirty` flags).
    lint_lines: Vec<(usize, LineState)>,
    /// Global trace sequence counter at capture time.
    trace_seq: u64,
    /// Site mask at capture time.
    sites_mask: u64,
    /// `psync`/`pfence` enable flag at capture time.
    psync_on: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shadow::PessimistAdversary;

    fn model_pool() -> PmemPool {
        PmemPool::new(PoolCfg::model(1 << 20))
    }

    #[test]
    fn layout_reserves_null_roots_recovery() {
        let p = model_pool();
        assert!(p.root(0).word() >= WORDS_PER_LINE); // line 0 reserved
        assert_eq!(p.root(1).word() - p.root(0).word(), WORDS_PER_LINE);
        let r0 = p.recovery_line(0);
        assert!(r0.word() > p.root(NUM_ROOTS - 1).word());
        let heap = p.alloc_lines(1);
        assert!(heap.word() > p.recovery_line(p.max_threads() - 1).word());
    }

    #[test]
    #[should_panic(expected = "root index")]
    fn root_bounds_checked() {
        model_pool().root(NUM_ROOTS);
    }

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let p = model_pool();
        let a = p.alloc_lines(1);
        let b = p.alloc_lines(2);
        let c = p.alloc_lines(1);
        assert_eq!(a.word() % WORDS_PER_LINE, 0);
        assert_eq!(b.word(), a.word() + WORDS_PER_LINE);
        assert_eq!(c.word(), b.word() + 2 * WORDS_PER_LINE);
    }

    #[test]
    fn alloc_exhaustion_returns_none() {
        let p = PmemPool::new(PoolCfg::model(0)); // minimum-size pool
                                                  // eat everything
        while p.try_alloc_lines(1).is_some() {}
        assert!(p.try_alloc_lines(1).is_none());
        assert_eq!(p.remaining_lines(), 0);
    }

    #[test]
    fn load_store_cas_roundtrip() {
        let p = model_pool();
        let a = p.alloc_lines(1);
        assert_eq!(p.load(a), 0); // zero-initialized
        p.store(a, 17);
        assert_eq!(p.load(a), 17);
        assert_eq!(p.cas(a, 17, 23), Ok(17));
        assert_eq!(p.load(a), 23);
        assert_eq!(p.cas(a, 17, 99), Err(23));
        assert_eq!(p.load(a), 23);
    }

    #[test]
    fn stats_count_instructions() {
        let p = model_pool();
        let a = p.alloc_lines(1);
        p.pwb(a, SiteId(2));
        p.pwb(a, SiteId(2));
        p.psync();
        p.pfence();
        let s = p.stats();
        assert_eq!(s.pwb_at(SiteId(2)), 2);
        assert_eq!(s.psync, 1);
        assert_eq!(s.pfence, 1);
    }

    #[test]
    fn disabled_site_neither_flushes_nor_counts() {
        let p = model_pool();
        let a = p.alloc_lines(1);
        p.store(a, 5);
        p.set_site_enabled(SiteId(1), false);
        p.pwb(a, SiteId(1));
        p.psync();
        assert_eq!(p.stats().pwb_at(SiteId(1)), 0);
        // not flushed => lost by a pessimist crash
        p.crash(&mut PessimistAdversary);
        assert_eq!(p.load(a), 0);
    }

    #[test]
    fn disabled_psync_not_counted_and_not_committed() {
        let p = model_pool();
        let a = p.alloc_lines(1);
        p.store(a, 5);
        p.pwb(a, SiteId(0));
        p.set_psync_enabled(false);
        p.psync();
        assert_eq!(p.stats().psync, 0);
        p.crash(&mut PessimistAdversary);
        assert_eq!(p.load(a), 0, "psync was disabled, pwb never committed");
    }

    #[test]
    fn pwb_psync_makes_word_durable() {
        let p = model_pool();
        let a = p.alloc_lines(1);
        p.store(a, 5);
        p.pwb(a, SiteId(0));
        p.psync();
        p.crash(&mut PessimistAdversary);
        assert_eq!(p.load(a), 5);
        assert_eq!(p.persisted_load(a), 5);
    }

    #[test]
    fn pwb_range_covers_multi_line_objects() {
        let p = model_pool();
        let a = p.alloc_lines(2); // 16-word object
        for i in 0..16 {
            p.store(a.add(i), i + 1);
        }
        p.pwb_range(a, 16, SiteId(0));
        p.psync();
        p.crash(&mut PessimistAdversary);
        for i in 0..16 {
            assert_eq!(p.load(a.add(i)), i + 1);
        }
        assert_eq!(p.stats().pwb_at(SiteId(0)), 2); // two lines, two pwbs
    }

    #[test]
    fn pbarrier_is_pwb_plus_fence() {
        let p = model_pool();
        let a = p.alloc_lines(1);
        p.store(a, 9);
        p.pbarrier(a, 1, SiteId(3));
        let s = p.stats();
        assert_eq!(s.pwb_at(SiteId(3)), 1);
        assert_eq!(s.pfence, 1);
        p.crash(&mut PessimistAdversary);
        assert_eq!(p.load(a), 9);
    }

    #[test]
    fn crash_injection_stops_mid_sequence() {
        let p = model_pool();
        let a = p.alloc_lines(1);
        p.crash_ctl().arm_after(2); // two events survive, third crashes
        let done = crate::crash::run_crashable(|| {
            p.store(a, 1); // event 0
            p.pwb(a, SiteId(0)); // event 1
            p.psync(); // event 2 -> crash before completing
            true
        });
        assert_eq!(done, None);
        p.crash(&mut PessimistAdversary);
        // The pwb was issued but never synced; pessimist drops it.
        assert_eq!(p.load(a), 0);
    }

    #[test]
    fn perf_mode_pool_smoke() {
        let p = PmemPool::new(PoolCfg::perf(1 << 20));
        let a = p.alloc_lines(1);
        p.store(a, 7);
        p.pwb(a, SiteId(0)); // real clflush on x86-64
        p.psync(); // real sfence
        assert_eq!(p.load(a), 7);
        assert_eq!(p.stats().pwb_total(), 1);
    }

    #[test]
    fn trace_records_pool_events_in_order() {
        let p = PmemPool::new(PoolCfg {
            trace: true,
            ..PoolCfg::model(1 << 20)
        });
        let a = p.alloc_lines(1);
        p.store_at(a, 7, SiteId(4));
        p.pwb(a, SiteId(4));
        p.psync();
        p.load(a);
        let snap = p.trace_snapshot();
        let kinds: Vec<crate::EventKind> = snap.events.iter().map(|e| e.kind).collect();
        use crate::EventKind::*;
        assert_eq!(kinds, vec![Store, Pwb, Psync, Load]);
        assert_eq!(snap.events[0].site, 4);
        assert!(snap.events[0].dirty, "store dirties its line");
        assert!(snap.events[1].dirty, "pwb found the line dirty");
        assert!(!snap.events[3].dirty, "after psync the line is clean");
        assert_eq!(snap.events[0].line, a.line());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn trace_disabled_records_nothing() {
        let p = model_pool();
        let a = p.alloc_lines(1);
        p.store(a, 1);
        p.pwb(a, SiteId(0));
        assert!(p.trace_snapshot().events.is_empty());
        p.set_trace_enabled(true);
        p.store(a, 2);
        assert_eq!(p.trace_snapshot().events.len(), 1);
    }

    #[test]
    fn lint_flags_seeded_redundant_pwb_at_its_site() {
        let p = PmemPool::new(PoolCfg {
            lint: true,
            ..PoolCfg::model(1 << 20)
        });
        let a = p.alloc_lines(1);
        p.store(a, 1);
        p.pwb(a, SiteId(2)); // useful
        p.pwb(a, SiteId(9)); // redundant: nothing stored in between
        p.psync();
        let r = p.lint_report();
        assert_eq!(r.count(crate::LintKind::RedundantPwb), 1);
        let d = r.of_kind(crate::LintKind::RedundantPwb).next().unwrap();
        assert_eq!(d.site, 9, "flagged at the redundant flush's site");
        assert_eq!(d.line, a.line());
        assert_eq!(r.pwb_dirty[2], 1);
        assert_eq!(r.pwb_redundant[9], 1);
    }

    #[test]
    fn lint_flags_seeded_missing_pwb_at_store_site() {
        let p = PmemPool::new(PoolCfg {
            lint: true,
            ..PoolCfg::model(1 << 20)
        });
        let a = p.alloc_lines(2);
        let b = a.add(WORDS_PER_LINE as u64);
        p.store_at(a, 1, SiteId(3));
        p.store_at(b, 2, SiteId(7)); // never flushed
        p.pwb(a, SiteId(3));
        p.psync();
        let r = p.lint_report();
        assert_eq!(r.count(crate::LintKind::UnflushedDirty), 1);
        let d = r.of_kind(crate::LintKind::UnflushedDirty).next().unwrap();
        assert_eq!(
            d.site, 7,
            "attributed to the store that dirtied the lost line"
        );
        assert_eq!(d.line, b.line());
        // ... and a pessimist crash indeed loses exactly that line
        p.crash(&mut PessimistAdversary);
        assert_eq!(p.load(a), 1);
        assert_eq!(p.load(b), 0);
    }

    #[test]
    fn lint_flags_publish_of_unflushed_node() {
        let p = PmemPool::new(PoolCfg {
            lint: true,
            ..PoolCfg::model(1 << 20)
        });
        let node = p.alloc_lines(1);
        let link = p.alloc_lines(1);
        p.store_at(node, 42, SiteId(1)); // node content, never pbarrier'd
        p.cas(link, 0, node.raw()).unwrap(); // publish the pointer
        let r = p.lint_report();
        assert_eq!(r.count(crate::LintKind::UnfencedPublish), 1);
        let d = r.of_kind(crate::LintKind::UnfencedPublish).next().unwrap();
        assert_eq!(d.line, node.line());
        assert_eq!(d.site, 1, "attributed to the store that dirtied the node");
    }

    #[test]
    fn lint_clean_publish_after_pbarrier() {
        let p = PmemPool::new(PoolCfg {
            lint: true,
            ..PoolCfg::model(1 << 20)
        });
        let node = p.alloc_lines(1);
        let link = p.alloc_lines(1);
        p.store_at(node, 42, SiteId(1));
        p.pbarrier(node, 1, SiteId(1)); // flush + fence before publishing
        p.cas(link, 0, node.raw()).unwrap();
        p.pwb(link, SiteId(2));
        p.psync();
        let r = p.lint_report();
        assert!(
            r.count(crate::LintKind::UnfencedPublish) == 0
                && r.count(crate::LintKind::RedundantPwb) == 0,
            "{:?}",
            r.diags
        );
    }

    #[test]
    fn lint_crash_records_losses_permanently() {
        let p = PmemPool::new(PoolCfg {
            lint: true,
            ..PoolCfg::model(1 << 20)
        });
        let a = p.alloc_lines(1);
        p.store_at(a, 5, SiteId(6));
        p.crash(&mut PessimistAdversary);
        let r = p.lint_report();
        assert_eq!(r.count(crate::LintKind::UnflushedDirty), 1);
        assert_eq!(
            r.of_kind(crate::LintKind::UnflushedDirty)
                .next()
                .unwrap()
                .site,
            6
        );
        // post-crash the views agree; a fresh cycle reports nothing new
        p.store(a, 9);
        p.pwb(a, SiteId(0));
        p.psync();
        assert_eq!(p.lint_report().diags.len(), 1);
    }

    #[test]
    fn site_names_register_and_render() {
        let p = model_pool();
        p.register_site_names(&[(SiteId(2), "new-node"), (SiteId(3), "result")]);
        assert_eq!(p.site_name(SiteId(2)), Some("new-node"));
        assert_eq!(p.site_name(SiteId(0)), None);
        p.set_lint_enabled(true);
        let a = p.alloc_lines(1);
        p.store(a, 1);
        p.pwb(a, SiteId(2));
        p.pwb(a, SiteId(2));
        let text = p.lint_report_text();
        assert!(text.contains("redundant-pwb"), "{text}");
        assert!(text.contains("site 2 (new-node)"), "{text}");
    }

    #[test]
    fn snapshot_restore_roundtrips_words_and_cursor() {
        let p = model_pool();
        let a = p.alloc_lines(1);
        p.store(a, 11);
        p.pwb(a, SiteId(0));
        p.psync();
        let snap = p.snapshot();

        // Diverge: new allocation, new volatile + persisted state.
        let b = p.alloc_lines(1);
        p.store(a, 99);
        p.store(b, 7);
        p.pwb(b, SiteId(0));
        p.psync();

        p.restore(&snap);
        assert_eq!(p.load(a), 11, "volatile image rewound");
        assert_eq!(p.persisted_load(a), 11, "persisted image rewound");
        // The post-snapshot allocation is rolled back and its memory is
        // zeroed: re-allocating hands out the same (clean) address.
        let b2 = p.alloc_lines(1);
        assert_eq!(b2.word(), b.word());
        assert_eq!(p.load(b2), 0);
        assert_eq!(p.persisted_load(b2), 0);
    }

    #[test]
    fn restore_rewinds_lint_line_state_for_dirty_flags() {
        // The lint's line-state machine feeds the `dirty` annotation of
        // traced events; a replay from a checkpoint must reproduce the
        // original timeline's annotations exactly.
        let p = PmemPool::new(PoolCfg {
            trace: true,
            ..PoolCfg::model(1 << 20)
        });
        let a = p.alloc_lines(1);
        p.store(a, 1); // line dirty at snapshot time
        let snap = p.snapshot();
        p.pwb(a, SiteId(0));
        p.psync(); // line clean on the diverged timeline
        p.restore(&snap);
        p.pwb(a, SiteId(0));
        let t = p.trace_snapshot();
        let ev = t.events.last().unwrap();
        assert_eq!(ev.seq, snap.trace_seq, "sequence counter rewound");
        assert!(ev.dirty, "restored lint state remembers the dirty line");
    }

    #[test]
    fn restore_rewinds_pending_pwbs() {
        // A pwb pending (not yet psync'd) at snapshot time must be pending
        // again after restore: a later crash resolves it exactly as the
        // original timeline would have.
        let p = model_pool();
        let a = p.alloc_lines(1);
        p.store(a, 5);
        p.pwb(a, SiteId(0)); // pending, never synced
        let snap = p.snapshot();
        p.psync(); // diverge: commit it
        p.restore(&snap);
        struct PickPending;
        impl CrashAdversary for PickPending {
            fn choose(&mut self, _: usize, has_pending: bool) -> crate::CrashChoice {
                assert!(has_pending, "pending snapshot must be restored");
                crate::CrashChoice::Pending
            }
        }
        p.crash(&mut PickPending);
        assert_eq!(p.load(a), 5);
    }

    #[test]
    fn restore_disarms_crash_and_rewinds_trace_seq() {
        let p = PmemPool::new(PoolCfg {
            trace: true,
            ..PoolCfg::model(1 << 20)
        });
        let a = p.alloc_lines(1);
        p.store(a, 1);
        let snap = p.snapshot();
        let seq_before = p.trace_snapshot().events.last().unwrap().seq;
        p.store(a, 2);
        p.crash_ctl().arm_after(1000);
        p.restore(&snap);
        assert!(!p.crash_ctl().armed(), "restore disarms injection");
        assert_eq!(p.trace_event_total(), 0, "restore clears the trace");
        p.store(a, 3);
        let e = p.trace_snapshot().events[0];
        assert_eq!(
            e.seq,
            seq_before + 1,
            "replay re-issues the original sequence numbers"
        );
    }

    #[test]
    fn restore_preserves_site_mask_from_snapshot() {
        let p = model_pool();
        let a = p.alloc_lines(1);
        p.set_site_enabled(SiteId(4), false);
        let snap = p.snapshot();
        p.set_site_enabled(SiteId(4), true);
        p.set_psync_enabled(false);
        p.restore(&snap);
        p.pwb(a, SiteId(4));
        assert_eq!(p.stats().pwb_at(SiteId(4)), 0, "mask restored (site off)");
        p.store(a, 1);
        p.pwb(a, SiteId(0));
        p.psync();
        assert_eq!(p.stats().psync, 1, "psync enable restored");
    }

    /// A replay from a checkpoint is restored from the same snapshot again
    /// and again. Every kind of mutation a replay makes — stores, fresh
    /// allocations, `pwb`/`psync` and crash resolution — must be undone by
    /// the next restore, in both the volatile and the persisted image.
    #[test]
    fn incremental_restore_matches_full_copy() {
        let p = model_pool();
        let a = p.alloc_lines(1);
        let b = p.alloc_lines(1);
        p.store(a, 1);
        p.pwb(a, SiteId(0));
        p.psync();
        p.store(b, 2); // dirty at capture: the views differ
        let snap = p.snapshot();
        p.restore(&snap);
        // Mutate broadly: overwrite, allocate fresh lines, persist them,
        // and resolve a crash.
        p.store(a, 9);
        let c = p.alloc_lines(1);
        p.store(c, 7);
        p.pwb(c, SiteId(1));
        p.psync();
        p.crash(&mut crate::PessimistAdversary);
        assert_eq!(p.load(c), 7, "flushed-and-synced line survives the crash");
        // The second restore of the same snapshot must equal it exactly.
        p.restore(&snap);
        assert_eq!(p.load(a), 1);
        assert_eq!(p.load(b), 2);
        assert_eq!(p.persisted_load(a), 1);
        assert_eq!(
            p.persisted_load(b),
            0,
            "b was dirty and unflushed at capture"
        );
        assert_eq!(p.load(c), 0, "post-capture allocation rewound to zero");
        assert_eq!(p.persisted_load(c), 0);
        assert_eq!(p.alloc_lines(1), c, "allocation cursor rewound");
        // A crash right after the restore resolves to the capture state.
        p.crash(&mut crate::PessimistAdversary);
        assert_eq!(p.load(a), 1, "a was persisted at capture");
        assert_eq!(p.load(b), 0, "pessimist drops b's unflushed store");
    }

    #[test]
    fn fused_epoch_tracks_arm_and_observers() {
        // White-box: the fast paths only work if every control action
        // maintains its epoch bit.
        let p = model_pool();
        assert_eq!(p.epoch.load(Ordering::SeqCst), EP_SHADOW);
        p.crash_ctl().arm_after(5);
        assert_eq!(p.epoch.load(Ordering::SeqCst), EP_SHADOW | EP_CRASH);
        p.crash_ctl().disarm();
        p.set_trace_enabled(true);
        p.set_lint_enabled(true);
        assert_eq!(
            p.epoch.load(Ordering::SeqCst),
            EP_SHADOW | EP_TRACE | EP_LINT
        );
        p.set_trace_enabled(false);
        p.set_lint_enabled(false);
        assert_eq!(p.epoch.load(Ordering::SeqCst), EP_SHADOW);
        // Checkpointed replay leaves the fast paths alone: neither a
        // restore nor a crash resolution sets a bit.
        p.restore(&p.snapshot());
        assert_eq!(p.epoch.load(Ordering::SeqCst), EP_SHADOW);
        p.crash(&mut PessimistAdversary);
        assert_eq!(p.epoch.load(Ordering::SeqCst), EP_SHADOW);
    }

    #[test]
    fn fired_countdown_clears_epoch_bit() {
        // Auto-disarm on firing must clear EP_CRASH, or every later event
        // would keep taking the slow path.
        let p = model_pool();
        let a = p.alloc_lines(1);
        p.crash_ctl().arm_after(0);
        assert!(crate::crash::run_crashable(|| p.store(a, 1)).is_none());
        assert_eq!(p.epoch.load(Ordering::SeqCst) & EP_CRASH, 0);
    }

    #[test]
    fn concurrent_allocation_is_disjoint() {
        let p = std::sync::Arc::new(model_pool());
        let mut handles = vec![];
        for _ in 0..4 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                (0..100)
                    .map(|_| p.alloc_lines(1).word())
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 400, "allocations overlapped");
    }
}
