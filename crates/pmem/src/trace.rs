//! Persistence-event tracing: a per-thread bounded ring of instrumented
//! pool events.
//!
//! Every instrumented primitive of [`crate::PmemPool`] — `load`, `store`,
//! `cas`, `pwb`, `pfence`, `psync` — can be recorded as an [`Event`]
//! carrying the event kind, the originating thread, the affected word and
//! cache line, the attributed [`SiteId`] (where the caller supplied one),
//! and the line's dirty state as tracked by the [`crate::lint`] module's
//! line-state machine. Recording is off by default and costs a single
//! relaxed flag load per primitive when disabled; when enabled, each thread
//! appends to its own bounded single-writer ring (oldest events are
//! dropped, with a drop counter), so tracing a long run keeps a window of
//! recent history rather than growing without bound.
//!
//! ## Lock-free record path
//!
//! A ring is written by exactly one thread (its claimant) and read by
//! snapshotters, so the record path takes no lock: the writer publishes a
//! cell with plain release stores and bumps its private head counter.
//! Each cell leads with a *marker* word holding `idx + 1` of the entry it
//! carries, written **before** the entry's payload; a snapshot accepts a
//! cell only if the marker matches the expected index both before and
//! after reading the payload. Because payload stores are `Release` and
//! payload reads `Acquire`, a reader that observed any in-progress payload
//! word is guaranteed to observe the already-written new marker on the
//! re-check — torn cells are discarded (they count as dropped), and on a
//! quiescent pool every retained cell is exact.
//!
//! The trace is the raw material for two consumers:
//!
//! * **debugging** recovery protocols: after a failing crash sweep, the
//!   last events before the injected [`crate::CrashPoint`] show exactly
//!   which stores were still unflushed and which `pwb`s had not been
//!   fenced;
//! * **cost attribution** (`bench::figures::fig_attribution`): events per
//!   site × dirty ratio × redundancy, the table behind the paper's
//!   low/medium/high `pwb` categorization.
//!
//! The retained window plus the drop counter also gives an exact total
//! event count — [`TraceSnapshot::total`] — which is what the `crashsweep`
//! harness uses to enumerate every crash point of a workload:
//!
//! ```
//! use pmem::{EventKind, PmemPool, PoolCfg, SiteId};
//! let pool = PmemPool::new(PoolCfg {
//!     trace: true,
//!     trace_capacity: 2, // keep a 2-event window per thread...
//!     ..PoolCfg::model(1 << 20)
//! });
//! let a = pool.alloc_lines(1);
//! pool.store(a, 1);
//! pool.pwb(a, SiteId(0));
//! pool.psync();
//! let snap = pool.trace_snapshot();
//! assert_eq!(snap.events.len(), 2); // ...the oldest event was dropped,
//! assert_eq!(snap.dropped, 1);
//! assert_eq!(snap.total(), 3); // but the exact total is still known
//! assert_eq!(snap.events.last().unwrap().kind, EventKind::Psync);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::persist::SiteId;

/// Sentinel "no call site" value used for events whose primitive carries no
/// [`SiteId`] (plain `load`/`store`/`cas` and fences).
pub const NO_SITE: u8 = u8::MAX;

/// Number of per-thread rings a trace multiplexes over. Threads claim a
/// ring by CAS on first record (linear probe from their
/// [`thread_serial`] mod `N_RINGS`);
/// [`Trace::clear`] — which only runs at quiescent points — releases every
/// claim, so a long-lived pool serving many short-lived threads (the
/// explore engine spawns fresh workers per schedule) cannot exhaust the
/// slots.
const N_RINGS: usize = 64;

/// Words per ring cell: marker (`idx + 1`), seq, packed
/// addr/kind/site/dirty/tid ([`pack_cell`]). The fourth word is padding
/// that keeps the cell stride a power of two (cheap index→offset math) —
/// and it keeps one event's three live words from straddling cache lines.
const CELL_WORDS: usize = 4;

/// Sentinel owner: ring unclaimed.
const FREE: usize = usize::MAX;

/// Allocator for [`Trace::id`]. Starts at 1 so `trace_id == 0` marks an
/// empty [`RingCache`]; a `u64` counter never wraps in practice, so an id
/// is never reused across trace instances.
static TRACE_IDS: AtomicU64 = AtomicU64::new(1);

/// Per-thread memo of the ring this thread writes in one trace instance.
/// Turns the steady-state record path into raw stores: no owner probe, no
/// `OnceLock` deref, no bounds checks. Validity is one compare (checked in
/// [`Trace::record`]): ids are never reused and [`Trace::clear`] re-keys
/// the instance, so `trace_id` matching a live `&self` proves both that
/// the pointers are into that instance's rings and that no quiescent
/// clear has released ring claims since the memo was taken.
#[derive(Copy, Clone)]
struct RingCache {
    trace_id: u64,
    buf: *const AtomicU64,
    head: *const AtomicU64,
    mask: usize,
    /// The owning thread's [`trace_tid`], memoized so a cache hit needs no
    /// thread-local lookup at all.
    tid: usize,
}

thread_local! {
    static RING_CACHE: std::cell::Cell<RingCache> = const {
        std::cell::Cell::new(RingCache {
            trace_id: 0,
            buf: std::ptr::null(),
            head: std::ptr::null(),
            mask: 0,
            tid: 0,
        })
    };
}

/// Sequence numbers handed to one thread per refill of its [`SeqBlock`].
/// Small enough that cross-thread ordering skew stays within a handful of
/// events; large enough to amortize the global `fetch_add` (a full barrier
/// on x86) across a block.
const SEQ_BLOCK_LEN: u64 = 8;

/// Per-thread block of preallocated sequence numbers, keyed like
/// [`RingCache`] by the owning trace's current id. Turns the per-event
/// global `fetch_add` — the single most expensive instruction of the
/// observers-on hot path — into a thread-local cursor bump, refilled every
/// [`SEQ_BLOCK_LEN`] events.
///
/// Semantics: seqs stay globally unique and strictly monotone per thread.
/// Under genuinely parallel recording, *cross-thread* order becomes
/// approximate (a block-window skew); in every deterministic harness —
/// crash sweeps, the explore engine, checkpoint replays, all of which
/// drive events from one thread at a time with quiescent boundaries —
/// allocation degenerates to exactly the contiguous values a per-event
/// `fetch_add` would produce, which is what keeps checkpoint-vs-scratch
/// replay equality ([`Trace::seq_checkpoint`]) intact.
#[derive(Copy, Clone)]
struct SeqBlock {
    trace_id: u64,
    next: u64,
    end: u64,
}

thread_local! {
    static SEQ_BLOCK: std::cell::Cell<SeqBlock> = const {
        std::cell::Cell::new(SeqBlock {
            trace_id: 0,
            next: 0,
            end: 0,
        })
    };
}

/// Never-used thread ids: the next one handed out when [`FREE_TIDS`] is
/// empty.
static NEXT_TID: AtomicUsize = AtomicUsize::new(0);

/// Ids of exited threads, handed out again before fresh ones so that ids
/// stay below the stats layer's exclusively owned shards however many
/// threads a process starts over its lifetime. The mutex orders the exited
/// holder's last single-writer stats increment (its release) before the
/// next holder's first (its acquire).
static FREE_TIDS: Mutex<Vec<usize>> = Mutex::new(Vec::new());

thread_local! {
    static TID: Cell<usize> = const { Cell::new(usize::MAX) };
    static TID_RELEASE: TidRelease = const { TidRelease };
}

/// Returns the thread's id to [`FREE_TIDS`] when the thread exits.
struct TidRelease;

impl Drop for TidRelease {
    fn drop(&mut self) {
        let tid = TID.replace(usize::MAX);
        if tid != usize::MAX {
            FREE_TIDS
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(tid);
        }
    }
}

/// Process-wide small integer identifying the calling thread in trace
/// events, stats shards and lint findings. Assigned on first use, stable
/// for the thread's lifetime, and recycled after the thread exits. A
/// thread that first asks during its own teardown, after its release hook
/// ran, gets a fresh id it never returns. Trace rings are keyed by
/// [`thread_serial`] instead.
#[inline]
pub(crate) fn trace_tid() -> usize {
    let v = TID.get();
    if v != usize::MAX {
        v
    } else {
        claim_tid()
    }
}

/// [`trace_tid`]'s first call on a thread: a freed id if there is one,
/// else a fresh one. It claims the thread's serial too, so serials number
/// threads in the order they first touch an instrumented pool.
#[cold]
#[inline(never)]
fn claim_tid() -> usize {
    thread_serial();
    let v = if TID_RELEASE.try_with(|_| ()).is_ok() {
        let free = FREE_TIDS.lock().unwrap_or_else(|e| e.into_inner()).pop();
        free.unwrap_or_else(|| NEXT_TID.fetch_add(1, Ordering::Relaxed))
    } else {
        NEXT_TID.fetch_add(1, Ordering::Relaxed)
    };
    TID.set(v);
    v
}

/// A never-recycled serial of the calling thread, assigned on first use.
/// Trace rings are claimed by it rather than by the recyclable
/// [`trace_tid`], so a thread that inherits an exited thread's id still
/// writes a ring of its own, and a ring's capacity stays per thread.
#[inline]
pub(crate) fn thread_serial() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SERIAL: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    if SERIAL.get() == usize::MAX {
        SERIAL.set(NEXT.fetch_add(1, Ordering::Relaxed));
    }
    SERIAL.get()
}

/// The kind of instrumented event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Atomic word read.
    Load,
    /// Atomic word write.
    Store,
    /// Successful compare-and-swap (wrote the word).
    Cas,
    /// Failed compare-and-swap (no write happened).
    CasFail,
    /// Cache-line write-back.
    Pwb,
    /// Ordering fence.
    Pfence,
    /// Durability fence.
    Psync,
}

impl EventKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Load => "load",
            EventKind::Store => "store",
            EventKind::Cas => "cas",
            EventKind::CasFail => "cas-fail",
            EventKind::Pwb => "pwb",
            EventKind::Pfence => "pfence",
            EventKind::Psync => "psync",
        }
    }

    fn code(self) -> u64 {
        match self {
            EventKind::Load => 0,
            EventKind::Store => 1,
            EventKind::Cas => 2,
            EventKind::CasFail => 3,
            EventKind::Pwb => 4,
            EventKind::Pfence => 5,
            EventKind::Psync => 6,
        }
    }

    fn from_code(c: u64) -> EventKind {
        match c {
            0 => EventKind::Load,
            1 => EventKind::Store,
            2 => EventKind::Cas,
            3 => EventKind::CasFail,
            4 => EventKind::Pwb,
            5 => EventKind::Pfence,
            _ => EventKind::Psync,
        }
    }
}

/// One recorded pool event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number: unique across all threads of the pool and
    /// strictly increasing in each thread's record order. Seqs are issued
    /// from per-thread banks (`SEQ_BLOCK_LEN` at a time), so under true
    /// concurrency they are *not* contiguous per thread and cross-thread
    /// order is approximate; under the deterministic harnesses (one
    /// runnable thread at a time, checkpoints reclaim unissued seqs)
    /// allocation degenerates to the old contiguous global order.
    pub seq: u64,
    /// What happened.
    pub kind: EventKind,
    /// Process-wide id of the thread that issued the event; an exited
    /// thread's id is handed to a later thread.
    pub tid: usize,
    /// Attributed call site, or [`NO_SITE`].
    pub site: u8,
    /// Raw word address ([`crate::PAddr::raw`]); 0 for fences.
    pub addr: u64,
    /// Cache line of `addr` (0 for fences).
    pub line: usize,
    /// Dirty state of the affected line. For `store`/`cas` this is the
    /// state *after* the event (always dirty); for `pwb` it is the state
    /// *before* the flush (`false` marks a redundant flush); for `load` the
    /// current state; `false` for fences.
    pub dirty: bool,
}

/// Bits of a cell's packed word holding the raw word address. 2^36 words
/// = 512 GiB of pool — far above any configurable pool ([`crate::PoolCfg`]
/// capacities are process-heap allocations).
const PACK_ADDR_BITS: u32 = 36;
/// Trace tids above this saturate in recorded events (the ring claim uses
/// the thread's serial). 65535 concurrently attributable threads is far
/// beyond any in-tree harness; saturation only blurs *labels*, never
/// ordering or safety.
const PACK_TID_MAX: usize = (1 << 16) - 1;

/// Packed cell payload — one word instead of two so the record hot path
/// issues one fewer store per event: addr (36 bits) | kind (3) | site (8)
/// | dirty (1) | tid (16).
fn pack_cell(addr: u64, kind: EventKind, site: u8, dirty: bool, tid: usize) -> u64 {
    debug_assert!(addr < 1 << PACK_ADDR_BITS);
    addr | kind.code() << PACK_ADDR_BITS
        | (site as u64) << (PACK_ADDR_BITS + 3)
        | (dirty as u64) << (PACK_ADDR_BITS + 11)
        | (tid.min(PACK_TID_MAX) as u64) << (PACK_ADDR_BITS + 12)
}

fn unpack_cell(w: u64) -> (u64, EventKind, u8, bool, usize) {
    (
        w & ((1 << PACK_ADDR_BITS) - 1),
        EventKind::from_code(w >> PACK_ADDR_BITS & 0x7),
        (w >> (PACK_ADDR_BITS + 3) & 0xff) as u8,
        w >> (PACK_ADDR_BITS + 11) & 1 == 1,
        (w >> (PACK_ADDR_BITS + 12)) as usize,
    )
}

/// A point-in-time copy of the trace: every retained event, merged across
/// thread rings in global sequence order.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// Retained events, ascending by [`Event::seq`].
    pub events: Vec<Event>,
    /// Events discarded because a thread ring was full (plus, on a
    /// snapshot racing active writers, cells torn by a concurrent
    /// overwrite).
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Exact number of events recorded since the last clear — retained plus
    /// dropped. This is the `N` a crash sweep enumerates over: arming a
    /// crash after `k ∈ [0, N)` events covers every instrumented step of
    /// the traced workload.
    pub fn total(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }

    /// Number of retained events of `kind`.
    pub fn count(&self, kind: EventKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Retained events attributed to `site`.
    pub fn at_site(&self, site: SiteId) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.site == site.0)
    }
}

/// One single-writer ring: claimed by a thread on first record, written
/// only by that thread, read by snapshotters.
struct Ring {
    /// Claiming thread's [`thread_serial`], or [`FREE`].
    owner: AtomicUsize,
    /// Entries ever pushed by the owner (monotone within a claim; reset
    /// only by a quiescent [`Trace::clear`]).
    head: AtomicU64,
    /// `ring_slots * CELL_WORDS` atomic words, allocated on first claim.
    buf: OnceLock<Box<[AtomicU64]>>,
}

impl Ring {
    fn buf(&self, ring_slots: usize) -> &[AtomicU64] {
        self.buf.get_or_init(|| {
            (0..ring_slots * CELL_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect()
        })
    }
}

/// The live trace owned by a pool (see module docs).
pub(crate) struct Trace {
    enabled: AtomicBool,
    /// Retention window per ring (events kept).
    capacity: usize,
    /// Ring slot count: `capacity` rounded up to a power of two, so the
    /// record path maps an index to a slot with a mask instead of a
    /// division (an integer divide would dominate the whole record cost).
    ring_slots: usize,
    seq: AtomicU64,
    rings: Box<[Ring]>,
    /// Unique id keying per-thread [`RingCache`]s. Never reused — drawn
    /// from [`TRACE_IDS`] at construction and re-drawn by every quiescent
    /// [`Trace::clear`], which thereby invalidates every outstanding memo
    /// (clears release ring claims).
    id: AtomicU64,
}

impl Trace {
    pub(crate) fn new(capacity: usize, enabled: bool) -> Self {
        let capacity = capacity.max(1);
        Trace {
            enabled: AtomicBool::new(enabled),
            capacity,
            ring_slots: capacity.next_power_of_two(),
            seq: AtomicU64::new(0),
            rings: (0..N_RINGS)
                .map(|_| Ring {
                    owner: AtomicUsize::new(FREE),
                    head: AtomicU64::new(0),
                    buf: OnceLock::new(),
                })
                .collect(),
            id: AtomicU64::new(TRACE_IDS.fetch_add(1, Ordering::Relaxed)),
        }
    }

    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Allocates the next global sequence number (also used by the lint for
    /// diagnostics, so diagnostics interleave correctly with events).
    /// Served from the calling thread's [`SeqBlock`]; see there for the
    /// ordering semantics.
    #[inline]
    pub(crate) fn next_seq(&self) -> u64 {
        let b = SEQ_BLOCK.get();
        if b.trace_id == self.id.load(Ordering::Relaxed) && b.next < b.end {
            SEQ_BLOCK.set(SeqBlock {
                next: b.next + 1,
                ..b
            });
            return b.next;
        }
        self.next_seq_refill()
    }

    /// Block-empty (or foreign-trace) path of [`Trace::next_seq`]: grabs
    /// [`SEQ_BLOCK_LEN`] fresh seqs from the global counter, returns the
    /// first and banks the rest.
    #[cold]
    fn next_seq_refill(&self) -> u64 {
        let s = self.seq.fetch_add(SEQ_BLOCK_LEN, Ordering::Relaxed);
        SEQ_BLOCK.set(SeqBlock {
            trace_id: self.id.load(Ordering::Relaxed),
            next: s + 1,
            end: s + SEQ_BLOCK_LEN,
        });
        s
    }

    /// Returns the calling thread's unissued banked seqs to the global
    /// counter (possible exactly when no other thread has drawn from the
    /// counter since — the single-threaded case) and invalidates the bank.
    /// Returns the counter's resulting value.
    ///
    /// Pool checkpointing calls this so that `trace_seq` in a snapshot is
    /// the *next seq the run would actually issue*: a restored replay
    /// (which rewinds the counter to that value and starts with an empty
    /// bank) then re-issues exactly the seqs the capture run went on to
    /// use — the equality the sweep engine's paranoia mode asserts.
    pub(crate) fn seq_checkpoint(&self) -> u64 {
        let b = SEQ_BLOCK.get();
        if b.trace_id == self.id.load(Ordering::Relaxed) && b.next < b.end {
            let _ = self
                .seq
                .compare_exchange(b.end, b.next, Ordering::AcqRel, Ordering::Relaxed);
            SEQ_BLOCK.set(SeqBlock {
                trace_id: 0,
                next: 0,
                end: 0,
            });
        }
        self.seq.load(Ordering::SeqCst)
    }

    /// The calling thread's ring index: the slot its [`thread_serial`]
    /// already owns, else the first free slot from `serial % N_RINGS`
    /// claimed by CAS. With every in-tree harness a pool sees at most a
    /// handful of live threads between quiescent clears, so the probe hits
    /// on the first load.
    #[inline]
    fn ring_idx(&self, serial: usize) -> usize {
        let start = serial % N_RINGS;
        for i in 0..N_RINGS {
            let idx = (start + i) % N_RINGS;
            let owner = self.rings[idx].owner.load(Ordering::Relaxed);
            if owner == serial {
                return idx;
            }
            if owner == FREE
                && self.rings[idx]
                    .owner
                    .compare_exchange(FREE, serial, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                return idx;
            }
        }
        // All slots taken by other live threads: share slot `start`. The
        // claimant discipline degrades (two writers may interleave cells),
        // but nothing is unsafe — markers stay self-describing and torn
        // cells are dropped. Unreachable with < 64 live threads.
        start
    }

    /// Appends an event to the calling thread's ring (bounded, lock-free).
    /// The issuing thread's [`trace_tid`] is resolved internally (memoized
    /// in the ring cache, so the steady state pays no thread-local lookup).
    #[inline]
    pub(crate) fn record(&self, seq: u64, kind: EventKind, site: u8, addr: u64, dirty: bool) {
        let cached = RING_CACHE.get();
        if cached.trace_id == self.id.load(Ordering::Relaxed) {
            let packed = pack_cell(addr, kind, site, dirty, cached.tid);
            // Fast path: the cache was filled under THIS trace instance's
            // current id (ids are never reused, and `self` is alive here,
            // so the pointers are into live rings) and no quiescent
            // clear() has re-keyed the instance since — the cached ring is
            // still this thread's.
            unsafe {
                let h = (*cached.head).load(Ordering::Relaxed);
                let cell = cached.buf.add((h as usize & cached.mask) * CELL_WORDS);
                // Marker first (relaxed), payload second (release): a
                // reader that observes any payload word of this entry is
                // guaranteed to observe the new marker on its post-read
                // check (module docs).
                (*cell).store(h + 1, Ordering::Relaxed);
                (*cell.add(1)).store(seq, Ordering::Release);
                (*cell.add(2)).store(packed, Ordering::Release);
                (*cached.head).store(h + 1, Ordering::Release);
            }
            return;
        }
        self.record_uncached(seq, kind, site, addr, dirty);
    }

    /// Cache-miss record: resolves the calling thread's tid and ring,
    /// refills the thread-local cache, and writes the cell through the safe
    /// indexed path.
    #[cold]
    fn record_uncached(&self, seq: u64, kind: EventKind, site: u8, addr: u64, dirty: bool) {
        let tid = trace_tid();
        let packed = pack_cell(addr, kind, site, dirty, tid);
        let id = self.id.load(Ordering::Relaxed);
        let ring = &self.rings[self.ring_idx(thread_serial())];
        let buf = ring.buf(self.ring_slots);
        RING_CACHE.set(RingCache {
            trace_id: id,
            buf: buf.as_ptr(),
            head: &ring.head,
            mask: self.ring_slots - 1,
            tid,
        });
        let h = ring.head.load(Ordering::Relaxed);
        let cell = &buf[(h as usize & (self.ring_slots - 1)) * CELL_WORDS..][..CELL_WORDS];
        cell[0].store(h + 1, Ordering::Relaxed);
        cell[1].store(seq, Ordering::Release);
        cell[2].store(packed, Ordering::Release);
        ring.head.store(h + 1, Ordering::Release);
    }

    /// Exact number of events recorded since the last clear (retained plus
    /// dropped), without merging/sorting the rings — the cheap counterpart
    /// of `snapshot().total()` used by the sweep engine to mark operation
    /// boundaries.
    pub(crate) fn total(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| r.head.load(Ordering::Relaxed))
            .sum()
    }

    /// Rewinds the global sequence counter (pool snapshot/restore only —
    /// replaying from a restored checkpoint must re-issue the same sequence
    /// numbers the original run used past that point).
    pub(crate) fn set_seq(&self, v: u64) {
        self.seq.store(v, Ordering::SeqCst);
    }

    pub(crate) fn snapshot(&self) -> TraceSnapshot {
        let mut events: Vec<Event> = Vec::new();
        let mut dropped: u64 = 0;
        for ring in self.rings.iter() {
            let h = ring.head.load(Ordering::Acquire);
            if h == 0 {
                continue;
            }
            let buf = ring.buf(self.ring_slots);
            let cap = self.capacity as u64;
            let start = h.saturating_sub(cap);
            let mut retained = 0u64;
            for idx in start..h {
                let base = (idx as usize & (self.ring_slots - 1)) * CELL_WORDS;
                if buf[base].load(Ordering::Relaxed) != idx + 1 {
                    continue; // overwritten since `h` was read
                }
                let seq = buf[base + 1].load(Ordering::Acquire);
                let packed = buf[base + 2].load(Ordering::Acquire);
                if buf[base].load(Ordering::Relaxed) != idx + 1 {
                    continue; // torn by a concurrent overwrite
                }
                let (addr, kind, site, dirty, tid) = unpack_cell(packed);
                events.push(Event {
                    seq,
                    kind,
                    tid,
                    site,
                    addr,
                    line: (addr as usize) / crate::addr::WORDS_PER_LINE,
                    dirty,
                });
                retained += 1;
            }
            dropped += h - retained;
        }
        events.sort_by_key(|e| e.seq);
        TraceSnapshot { events, dropped }
    }

    /// Resets the trace. **Quiescent callers only** (pool restore / test
    /// setup): concurrent writers would race the owner release.
    pub(crate) fn clear(&self) {
        // Re-keying the instance invalidates every thread's RingCache memo
        // for it (they re-resolve — and possibly re-claim a different
        // slot — on next record).
        self.id
            .store(TRACE_IDS.fetch_add(1, Ordering::Relaxed), Ordering::Release);
        for ring in self.rings.iter() {
            if ring.head.load(Ordering::Relaxed) == 0 && ring.owner.load(Ordering::Relaxed) == FREE
            {
                continue;
            }
            ring.head.store(0, Ordering::Relaxed);
            // Release the claim so threads that died keep no slot pinned on
            // a long-lived pool. Stale cell contents need no scrub: a
            // reader only visits indices below the new head, and every one
            // of those cells is rewritten (marker included) first.
            ring.owner.store(FREE, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let t = Trace::new(4, true);
        for i in 0..10u64 {
            let seq = t.next_seq();
            t.record(seq, EventKind::Store, NO_SITE, i * 8, true);
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 4, "ring keeps only the newest events");
        assert_eq!(snap.dropped, 6);
        // the newest four survive, in order
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn snapshot_merges_in_sequence_order() {
        let t = Trace::new(64, true);
        for kind in [EventKind::Load, EventKind::Pwb, EventKind::Psync] {
            let seq = t.next_seq();
            t.record(seq, kind, 3, 16, false);
        }
        let snap = t.snapshot();
        assert!(snap.events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(snap.count(EventKind::Pwb), 1);
        assert_eq!(snap.at_site(SiteId(3)).count(), 3);
    }

    #[test]
    fn clear_resets_events_and_drops() {
        let t = Trace::new(1, true);
        for _ in 0..3 {
            let seq = t.next_seq();
            t.record(seq, EventKind::Store, NO_SITE, 8, true);
        }
        t.clear();
        let snap = t.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn event_records_line_of_addr() {
        let t = Trace::new(8, true);
        let seq = t.next_seq();
        t.record(seq, EventKind::Pwb, 2, 17, true);
        let snap = t.snapshot();
        assert_eq!(snap.events[0].line, 17 / crate::addr::WORDS_PER_LINE);
        assert_eq!(snap.events[0].addr, 17);
    }

    /// Stress the lock-free record path: writer threads append concurrently
    /// while a snapshotter races them, then a quiescent snapshot must hold
    /// every event exactly once. Each event's `addr` encodes
    /// `writer << 32 | i`, so the checks need no assumption about which
    /// trace tid a writer drew.
    ///
    /// Ordering contract under `SeqBlock` banking: seqs are globally unique
    /// and *per-thread monotone* in record order, but a thread's seqs are
    /// NOT contiguous (banks interleave), and cross-thread order is only
    /// approximate — so the test asserts per-writer order and global seq
    /// uniqueness, never inter-writer interleaving.
    #[test]
    fn concurrent_records_keep_per_thread_order_and_lose_nothing() {
        use std::sync::Arc;
        const WRITERS: usize = 4;
        const PER_WRITER: u64 = 2_000;

        fn check_consistent(snap: &TraceSnapshot) {
            let mut last = [-1i64; WRITERS];
            for e in &snap.events {
                let w = (e.addr >> 32) as usize;
                let i = (e.addr & 0xFFFF_FFFF) as i64;
                assert!(
                    i > last[w],
                    "writer {w}: event {i} duplicated or out of order (last seen {})",
                    last[w]
                );
                last[w] = i;
            }
            assert!(
                snap.events.windows(2).all(|p| p[0].seq < p[1].seq),
                "duplicate or unsorted seq in snapshot"
            );
        }

        let t = Arc::new(Trace::new(PER_WRITER as usize, true));
        let stop = Arc::new(AtomicBool::new(false));
        // Set once the snapshotter took a snapshot. Writers wait for it at
        // mid-storm, so however the threads are scheduled, one snapshot
        // completes before the storm ends. It is set before the snapshot
        // is checked, so a failed check releases the writers and shows as
        // a test failure, not a hang.
        let snapped = Arc::new(AtomicBool::new(false));
        let snapper = {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            let snapped = Arc::clone(&snapped);
            std::thread::spawn(move || {
                let mut snaps = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let snap = t.snapshot();
                    snapped.store(true, Ordering::Release);
                    check_consistent(&snap);
                    snaps += 1;
                }
                snaps
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let t = Arc::clone(&t);
                let snapped = Arc::clone(&snapped);
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        if i == PER_WRITER / 2 {
                            while !snapped.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                        }
                        let seq = t.next_seq();
                        t.record(seq, EventKind::Store, NO_SITE, (w as u64) << 32 | i, false);
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let mid_run_snaps = snapper.join().unwrap();
        assert!(mid_run_snaps > 0, "snapshotter never ran against the storm");

        // Quiescent: nothing lost, nothing duplicated, per-writer order
        // exact. (capacity == PER_WRITER, so no ring ever wrapped.)
        let snap = t.snapshot();
        check_consistent(&snap);
        assert_eq!(snap.dropped, 0, "no ring wrapped, so nothing may drop");
        assert_eq!(snap.events.len(), WRITERS * PER_WRITER as usize);
        let mut next = [0u64; WRITERS];
        for e in &snap.events {
            let w = (e.addr >> 32) as usize;
            let i = e.addr & 0xFFFF_FFFF;
            assert_eq!(i, next[w], "writer {w}: lost event");
            next[w] += 1;
        }
    }

    #[test]
    fn record_reuses_ring_after_quiescent_clear() {
        let t = Trace::new(8, true);
        for _ in 0..3 {
            let seq = t.next_seq();
            t.record(seq, EventKind::Store, NO_SITE, 8, true);
        }
        t.clear();
        assert_eq!(t.total(), 0);
        let seq = t.next_seq();
        t.record(seq, EventKind::Pwb, 1, 24, false);
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 1, "stale pre-clear cells must not leak");
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events[0].kind, EventKind::Pwb);
        assert_eq!(snap.events[0].seq, seq);
    }
}
