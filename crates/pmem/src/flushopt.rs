//! `FlushOpt`: the per-thread flush-elision and coalescing layer.
//!
//! The lint's per-site attribution (PR 1) showed where the paper's
//! competitors burn their persistence budget: Capsules' Full-persist list
//! flushes-and-fences every node it *traverses* (~50 `pwb`/op, nearly all
//! of lines that are already durable), and several algorithms re-flush the
//! same line more than once between two fences. NVTraverse and FliT both
//! make the same observation — a flush of a line that has not been stored
//! to since it was last written back is a no-op the hardware still
//! charges for. This module makes that a no-op the *substrate* recognizes,
//! behind [`crate::PoolCfg::flushopt`], with three cooperating pieces:
//!
//! 1. **Per-line flush state** (`FlushOpt::pwb_decision`): one packed
//!    atomic word per pool cache line tracking *unknown → dirty → flushed
//!    → (effectively) clean*, alongside the lint's table but independent
//!    of it — the lint is an observer that must stay truthful about what
//!    actually executed, while this table *changes* what executes. A `pwb`
//!    of a line that is flushed-since-its-last-store elides entirely: one
//!    relaxed load, no crash tick, no trace event, no shadow mutation —
//!    only the [`crate::StatsSnapshot::pwb_elided_per_site`] counter.
//! 2. **A per-thread write-combining buffer** (FliT-style small fixed
//!    array, `BUF_CAP` entries): a `pwb` of a still-dirty line is not
//!    executed on the spot but parked, deduplicated by line, and drained
//!    at the next real `pfence`/`psync` — so N same-line flushes between
//!    two fences cost one executed `pwb`. Overflow falls back to immediate
//!    execution, so the buffer is a bounded optimization, never a queue
//!    that can grow.
//! 3. **Fence-coalescible regions** ([`crate::PmemPool::coalesce_fences`]):
//!    algorithms mark scopes (Capsules' traverse, Tracking's help-engine
//!    read phases) where a `pfence`/`psync` that has *nothing to commit* —
//!    no buffered `pwb`s anywhere and no executed-but-unfenced `pwb`s —
//!    may elide too, counted in
//!    [`crate::StatsSnapshot::psync_coalesced`].
//!
//! ## Why elision is sound under the shadow crash model
//!
//! See DESIGN.md ("Flush elision") for the full argument; the shape:
//!
//! * A line is *effectively clean* when a `pwb` covered its latest store
//!   and a fence has completed since: volatile and persisted images agree,
//!   so a further `pwb` + commit of it is the identity on every crash
//!   image the adversary can choose. Eliding it removes nothing.
//! * A line is *flushed* when a `pwb` covered its latest store but no
//!   fence has yet: the shadow model already holds the pending snapshot,
//!   and since no store intervened (a store flips the state back to
//!   dirty), a second `pwb` would snapshot identical bytes. Eliding it
//!   leaves the same pending set.
//! * *Deferring* a dirty line's `pwb` to the draining fence only shrinks
//!   the adversary's menu: between defer and drain the line simply stays
//!   dirty, so the adversary chooses between the old persisted image and
//!   the volatile one — both already choices of the un-elided execution
//!   (which merely adds the mid-point snapshot as a third option).
//!   Crucially the *lint* stays truthful: a deferred `pwb` reports
//!   `FlushLint::on_pwb` only when it actually drains, so a
//!   crash before the drain still flags the line as unflushed-dirty.
//! * A fence elides only when there is *globally* nothing to commit. The
//!   shadow model documents `psync` as committing every pending line
//!   process-wide (its deliberate strengthening over per-thread sfence),
//!   so "nothing pending anywhere" — zero executed-but-unfenced `pwb`s
//!   and an empty combining buffer — makes the fence the identity.
//!
//! The cross-check is live, not just argued: when the pool elides a `pwb`
//! whose line the *lint* believes is dirty, the lint records a
//! [`crate::LintKind::ElidedDirtyPwb`] violation (see
//! `FlushLint::on_elided_pwb`). Every flushopt-enabled
//! verification matrix runs with that tripwire armed.
//!
//! ## Determinism
//!
//! The sweep and explorer engines require the instrumented event stream to
//! be a pure function of (config, seed, schedule). Elision and deferral
//! decisions are pure functions of this table's state, which is itself
//! driven only by instrumented events — so the optimized stream is
//! deterministic too, and the whole table (line states, fence epoch,
//! unfenced count, buffered entries) exports into
//! [`crate::PoolSnapshot`] and re-imports on restore so checkpointed
//! replays decide identically to from-scratch ones. `crash()` resets
//! everything to *unknown* (post-crash, volatile and persisted images
//! agree, but recovery code must re-earn its elisions).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

// ---- packed per-line word -------------------------------------------------
// bits 0..2   status (0 = unknown, 1 = dirty, 2 = flushed, 3 = clean)
// bits 32..64 fence epoch recorded by the covering pwb (Flushed only)

const FO_UNKNOWN: u64 = 0;
const FO_DIRTY: u64 = 1;
const FO_FLUSHED: u64 = 2;
const FO_CLEAN: u64 = 3;

const FO_EPOCH_MASK: u64 = 0xffff_ffff;

fn pack(status: u64, epoch: u64) -> u64 {
    status | (epoch & FO_EPOCH_MASK) << 32
}

fn status_of(m: u64) -> u64 {
    m & 0x3
}

fn epoch_of(m: u64) -> u64 {
    m >> 32
}

/// The status a line word reads as under the current fence epoch: a
/// `Flushed` line whose recorded epoch the global counter has moved past
/// was committed by that fence — effectively clean (same scheme as the
/// lint's O(1) fences).
fn eff_status(m: u64, epoch: u64) -> u64 {
    let st = status_of(m);
    if st == FO_FLUSHED && epoch_of(m) != (epoch & FO_EPOCH_MASK) {
        FO_CLEAN
    } else {
        st
    }
}

/// Write-combining buffer capacity per thread slot. FliT uses a handful of
/// entries; between two fences the paper's algorithms touch at most a few
/// distinct dirty lines, so 8 keeps the dedup scan trivially cheap while
/// still catching every same-line repeat.
pub(crate) const BUF_CAP: usize = 8;

/// Thread slots for the combining buffers, mirroring the trace's ring
/// count. Slots are indexed by `thread_serial() % N_SLOTS`; a collision
/// (more live threads than slots) merely shares a buffer, which is sound —
/// any real fence drains every occupied slot — just less private.
const N_SLOTS: usize = 64;

/// One thread's combining buffer: a fixed array of deferred
/// `(line, site)` pairs in arrival order.
#[derive(Copy, Clone)]
struct SlotBuf {
    entries: [(usize, u8); BUF_CAP],
    len: usize,
}

impl SlotBuf {
    const EMPTY: SlotBuf = SlotBuf {
        entries: [(0, 0); BUF_CAP],
        len: 0,
    };
}

#[repr(align(64))]
struct FlushSlot {
    buf: Mutex<SlotBuf>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Poison-tolerant, like the lint: injected CrashPoint panics never
    // unwind while a flushopt lock is held, but a foreign panic must not
    // wedge the layer.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What `FlushOpt::pwb_decision` told the pool to do with a `pwb`.
pub(crate) enum FlushDecision {
    /// Run the real flush path; `pre` is the pre-read line word for the
    /// post-execution [`FlushOpt::note_real_pwb`] transition.
    Execute { pre: u64 },
    /// Line already flushed since its last store (or fully clean): skip
    /// everything. The caller cross-checks this against the lint.
    Elide,
    /// Line parked in the combining buffer; the draining fence will run it.
    Deferred,
    /// An identical deferred flush is already buffered: this one folds
    /// into it (counted as elided, but *not* lint-cross-checked — the line
    /// is genuinely dirty and the queued entry covers it).
    Coalesced,
}

thread_local! {
    /// Fence-coalescible region depth per (pool, thread): a tiny linear
    /// map keyed by the pool's flushopt id, because one thread can drive
    /// several pools (the test suite does constantly).
    static REGIONS: RefCell<Vec<(u64, u32)>> = const { RefCell::new(Vec::new()) };
}

static NEXT_FLUSHOPT_ID: AtomicU64 = AtomicU64::new(1);

/// The live elision layer owned by a pool (see module docs). Allocated
/// unconditionally (the tables are lazily zero-mapped, like the lint's);
/// consulted only when [`crate::epoch::EP_FLUSHOPT`] is set.
pub(crate) struct FlushOpt {
    /// Process-unique id keying the thread-local region-depth map.
    id: u64,
    /// Packed per-line state (see the bit layout above); index = cache
    /// line.
    meta: Box<[AtomicU64]>,
    /// Global fence counter; bumped by every *real* fence (the O(1)
    /// commit, same scheme as the lint's).
    fence_epoch: AtomicU64,
    /// Executed-but-unfenced `pwb`s: pending snapshots the next real
    /// fence must commit. A fence may only elide at zero.
    unfenced: AtomicU64,
    /// Deferred entries across all slots. Lets the fence's drain and the
    /// elidability check skip the slot scan entirely when nothing is
    /// buffered (the common case).
    deferred: AtomicUsize,
    /// Bit `i` set while `slots[i]` is non-empty; the drain scans only
    /// set bits.
    occupied: AtomicU64,
    slots: Box<[FlushSlot]>,
    /// Every line ever touched since the last reset, in first-touch order
    /// (cold path: pushed once per line), so export/reset iterate touched
    /// lines instead of the whole table.
    journal: Mutex<Vec<usize>>,
}

/// Exported flushopt state, carried by [`crate::PoolSnapshot`]. Statuses
/// are materialized under the capture-time fence epoch; import re-anchors
/// them to the importer's epoch.
#[derive(Clone, Debug)]
pub(crate) struct FlushOptSnap {
    /// `(line, effective status)` for every tracked line, ascending.
    lines: Vec<(usize, u64)>,
    /// Executed-but-unfenced `pwb` count at capture time.
    unfenced: u64,
    /// Deferred `(line, site)` entries in drain order.
    deferred: Vec<(usize, u8)>,
}

impl FlushOpt {
    pub(crate) fn new(nlines: usize) -> Self {
        FlushOpt {
            id: NEXT_FLUSHOPT_ID.fetch_add(1, Ordering::Relaxed),
            meta: crate::pool::alloc_zeroed_atomics(nlines),
            fence_epoch: AtomicU64::new(0),
            unfenced: AtomicU64::new(0),
            deferred: AtomicUsize::new(0),
            occupied: AtomicU64::new(0),
            slots: (0..N_SLOTS)
                .map(|_| FlushSlot {
                    buf: Mutex::new(SlotBuf::EMPTY),
                })
                .collect(),
            journal: Mutex::new(Vec::new()),
        }
    }

    /// First touch of `line`: adds it to the journal.
    fn journal_push(&self, line: usize) {
        lock(&self.journal).push(line);
    }

    /// A store (or successful CAS) wrote `line`: the line is dirty again
    /// and must not elide until re-flushed.
    #[inline]
    pub(crate) fn on_store(&self, line: usize) {
        let Some(m) = self.meta.get(line) else {
            return;
        };
        let mut cur = m.load(Ordering::Relaxed);
        loop {
            if status_of(cur) == FO_DIRTY {
                return;
            }
            match m.compare_exchange_weak(
                cur,
                pack(FO_DIRTY, 0),
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(prev) => {
                    if status_of(prev) == FO_UNKNOWN {
                        self.journal_push(line);
                    }
                    return;
                }
                Err(v) => cur = v,
            }
        }
    }

    /// Decides the fate of a `pwb` of `line` issued by the current thread
    /// at `site`. Called on the slow path *before* the crash tick, so
    /// elided/deferred flushes are invisible to crash-point enumeration
    /// (exactly like masked sites).
    pub(crate) fn pwb_decision(&self, line: usize, site: u8) -> FlushDecision {
        let Some(m) = self.meta.get(line) else {
            return FlushDecision::Execute { pre: 0 };
        };
        let cur = m.load(Ordering::Relaxed);
        let epoch = self.fence_epoch.load(Ordering::Relaxed);
        match eff_status(cur, epoch) {
            // Flushed since its last store: a re-flush would snapshot the
            // identical bytes (flushed) or be the identity (clean).
            FO_FLUSHED | FO_CLEAN => FlushDecision::Elide,
            // Dirty or unknown: park it in the combining buffer.
            _ => {
                let slot = &self.slots[crate::trace::thread_serial() % N_SLOTS];
                let mut buf = lock(&slot.buf);
                if buf.entries[..buf.len].iter().any(|&(l, _)| l == line) {
                    return FlushDecision::Coalesced;
                }
                if buf.len == BUF_CAP {
                    // Full: execute this one for real, keep the buffer.
                    return FlushDecision::Execute { pre: cur };
                }
                let n = buf.len;
                buf.entries[n] = (line, site);
                buf.len = n + 1;
                // Bookkeeping happens under the slot lock so a concurrent
                // drain can never observe the entry without the counter
                // (which would transiently underflow `deferred`).
                if n == 0 {
                    self.occupied.fetch_or(
                        1 << (crate::trace::thread_serial() % N_SLOTS),
                        Ordering::Relaxed,
                    );
                }
                self.deferred.fetch_add(1, Ordering::Relaxed);
                FlushDecision::Deferred
            }
        }
    }

    /// Records the commit obligation of a real `pwb` *about to* execute.
    /// Called before the flush path runs so a concurrently-elided fence in
    /// another thread can never slip between the snapshot becoming pending
    /// and the obligation becoming visible. (If the execution then crashes
    /// or unwinds, the over-count merely blocks elision until the next
    /// real fence — conservative, never unsound.)
    pub(crate) fn obligate(&self) {
        self.unfenced.fetch_add(1, Ordering::Relaxed);
    }

    /// A real `pwb` of `line` just executed (immediately or from a drain);
    /// `pre` is the word `FlushOpt::pwb_decision` read. Transitions the
    /// line to `Flushed` at the current epoch. The CAS may lose to a
    /// racing store — then the line correctly stays dirty (the snapshot
    /// predates the new content).
    pub(crate) fn note_real_pwb(&self, line: usize, pre: u64) {
        let Some(m) = self.meta.get(line) else {
            return;
        };
        let epoch = self.fence_epoch.load(Ordering::Relaxed);
        if m.compare_exchange(
            pre,
            pack(FO_FLUSHED, epoch),
            Ordering::AcqRel,
            Ordering::Relaxed,
        )
        .is_ok()
            && status_of(pre) == FO_UNKNOWN
        {
            self.journal_push(line);
        }
    }

    /// The current packed word of `line` (the `pre` input of
    /// [`FlushOpt::note_real_pwb`] for a drained entry).
    pub(crate) fn line_word(&self, line: usize) -> u64 {
        self.meta.get(line).map_or(0, |m| m.load(Ordering::Relaxed))
    }

    /// May a `pfence`/`psync` issued inside a coalescible region elide?
    /// Only when there is globally nothing to commit: no deferred entries
    /// and no executed-but-unfenced `pwb`s.
    pub(crate) fn fence_elidable(&self) -> bool {
        self.in_region()
            && self.deferred.load(Ordering::Relaxed) == 0
            && self.unfenced.load(Ordering::Relaxed) == 0
    }

    /// Takes every deferred entry, across all slots, in (slot, arrival)
    /// order. The caller executes them as real `pwb`s *without holding any
    /// flushopt lock* (the execution path yields to the scheduler and may
    /// unwind on an injected crash).
    pub(crate) fn take_deferred(&self) -> Vec<(usize, u8)> {
        if self.deferred.load(Ordering::Relaxed) == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mask = self.occupied.swap(0, Ordering::Relaxed);
        for i in 0..N_SLOTS {
            if mask & (1 << i) == 0 {
                continue;
            }
            let mut buf = lock(&self.slots[i].buf);
            out.extend_from_slice(&buf.entries[..buf.len]);
            buf.len = 0;
        }
        self.deferred.fetch_sub(out.len(), Ordering::Relaxed);
        out
    }

    /// A real `pfence`/`psync` completed: every pending snapshot is
    /// committed. O(1) — bumping the epoch retires every recorded
    /// `Flushed` word at once.
    pub(crate) fn on_fence(&self) {
        self.fence_epoch.fetch_add(1, Ordering::AcqRel);
        self.unfenced.store(0, Ordering::Relaxed);
    }

    /// A simulated crash resolved: volatile and persisted images now
    /// agree, but every tracked state is discarded rather than promoted —
    /// recovery re-earns its elisions, and no pre-crash deferral survives.
    pub(crate) fn reset(&self) {
        let mut journal = lock(&self.journal);
        for &l in journal.iter() {
            self.meta[l].store(0, Ordering::Relaxed);
        }
        journal.clear();
        drop(journal);
        for s in self.slots.iter() {
            lock(&s.buf).len = 0;
        }
        self.occupied.store(0, Ordering::Relaxed);
        self.deferred.store(0, Ordering::Relaxed);
        self.unfenced.store(0, Ordering::Relaxed);
    }

    // ---- fence-coalescible regions ------------------------------------

    pub(crate) fn region_enter(&self) {
        REGIONS.with(|r| {
            let mut v = r.borrow_mut();
            match v.iter_mut().find(|(id, _)| *id == self.id) {
                Some((_, d)) => *d += 1,
                None => v.push((self.id, 1)),
            }
        });
    }

    pub(crate) fn region_exit(&self) {
        REGIONS.with(|r| {
            let mut v = r.borrow_mut();
            if let Some(i) = v.iter().position(|(id, _)| *id == self.id) {
                v[i].1 -= 1;
                if v[i].1 == 0 {
                    v.swap_remove(i);
                }
            }
        });
    }

    fn in_region(&self) -> bool {
        REGIONS.with(|r| r.borrow().iter().any(|&(id, d)| id == self.id && d > 0))
    }

    // ---- snapshot / restore -------------------------------------------

    /// Copies out the layer's state, materialized under the current fence
    /// epoch and sorted for determinism. Part of
    /// [`crate::PmemPool::snapshot`]: a replay from a restored checkpoint
    /// must make the same elide/defer/execute decisions the original
    /// timeline did.
    pub(crate) fn export_state(&self) -> FlushOptSnap {
        let epoch = self.fence_epoch.load(Ordering::Relaxed);
        let mut tracked: Vec<usize> = lock(&self.journal).clone();
        tracked.sort_unstable();
        let mut lines = Vec::with_capacity(tracked.len());
        for l in tracked {
            let st = eff_status(self.meta[l].load(Ordering::Relaxed), epoch);
            if st != FO_UNKNOWN {
                lines.push((l, st));
            }
        }
        FlushOptSnap {
            lines,
            unfenced: self.unfenced.load(Ordering::Relaxed),
            deferred: self.take_deferred_peek(),
        }
    }

    /// The deferred entries in drain order, without consuming them.
    fn take_deferred_peek(&self) -> Vec<(usize, u8)> {
        let mut out = Vec::new();
        if self.deferred.load(Ordering::Relaxed) == 0 {
            return out;
        }
        for s in self.slots.iter() {
            let buf = lock(&s.buf);
            out.extend_from_slice(&buf.entries[..buf.len]);
        }
        out
    }

    /// Replaces the layer's state with a captured snapshot. Flushed lines
    /// re-anchor to the *current* epoch (the next real fence commits
    /// them); deferred entries land in the calling thread's slot, which
    /// under the single-threaded replay engines is the thread that will
    /// drain them.
    pub(crate) fn import_state(&self, snap: &FlushOptSnap) {
        self.reset();
        let epoch = self.fence_epoch.load(Ordering::Relaxed);
        let mut journal = lock(&self.journal);
        for &(l, st) in &snap.lines {
            let word = match st {
                FO_DIRTY => pack(FO_DIRTY, 0),
                FO_FLUSHED => pack(FO_FLUSHED, epoch),
                _ => pack(FO_CLEAN, 0),
            };
            self.meta[l].store(word, Ordering::Relaxed);
            journal.push(l);
        }
        drop(journal);
        self.unfenced.store(snap.unfenced, Ordering::Relaxed);
        if !snap.deferred.is_empty() {
            let tid = crate::trace::thread_serial() % N_SLOTS;
            let mut buf = lock(&self.slots[tid].buf);
            for (i, &e) in snap.deferred.iter().take(BUF_CAP).enumerate() {
                buf.entries[i] = e;
            }
            buf.len = snap.deferred.len().min(BUF_CAP);
            let n = buf.len;
            drop(buf);
            self.occupied.fetch_or(1 << tid, Ordering::Relaxed);
            self.deferred.store(n, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fo() -> FlushOpt {
        FlushOpt::new(64)
    }

    fn decide(f: &FlushOpt, line: usize) -> FlushDecision {
        f.pwb_decision(line, 1)
    }

    /// Drains the buffer and executes every entry the way the pool does:
    /// obligate, run the flush, mark the line.
    fn drain_exec(f: &FlushOpt) {
        for (l, _) in f.take_deferred() {
            let pre = f.meta[l].load(Ordering::Relaxed);
            f.obligate();
            f.note_real_pwb(l, pre);
        }
    }

    #[test]
    fn unknown_line_defers_then_flush_elides() {
        let f = fo();
        // Unknown → parked in the buffer.
        assert!(matches!(decide(&f, 3), FlushDecision::Deferred));
        // Same line again → folds into the queued entry.
        assert!(matches!(decide(&f, 3), FlushDecision::Coalesced));
        // Drain executes it; after the real pwb + fence the line is clean.
        let d = f.take_deferred();
        assert_eq!(d, vec![(3, 1)]);
        let pre = f.meta[3].load(Ordering::Relaxed);
        f.note_real_pwb(3, pre);
        f.on_fence();
        assert!(matches!(decide(&f, 3), FlushDecision::Elide));
    }

    #[test]
    fn store_redirties_and_blocks_elision() {
        let f = fo();
        f.on_store(5);
        assert!(matches!(decide(&f, 5), FlushDecision::Deferred));
        drain_exec(&f);
        f.on_fence();
        assert!(matches!(decide(&f, 5), FlushDecision::Elide));
        f.on_store(5);
        assert!(
            matches!(decide(&f, 5), FlushDecision::Deferred),
            "a store must re-arm the flush"
        );
    }

    #[test]
    fn flushed_but_unfenced_elides_without_new_obligation() {
        let f = fo();
        f.on_store(2);
        let FlushDecision::Deferred = decide(&f, 2) else {
            panic!("expected deferral");
        };
        drain_exec(&f);
        // No fence yet: the line reads Flushed, re-flushes elide, and the
        // single obligation stays one.
        assert!(matches!(decide(&f, 2), FlushDecision::Elide));
        assert_eq!(f.unfenced.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn buffer_overflow_falls_back_to_execute() {
        let f = fo();
        for l in 0..BUF_CAP {
            assert!(matches!(decide(&f, l), FlushDecision::Deferred));
        }
        assert!(
            matches!(decide(&f, BUF_CAP), FlushDecision::Execute { .. }),
            "a full buffer must execute, not grow"
        );
        assert_eq!(f.take_deferred().len(), BUF_CAP);
    }

    #[test]
    fn fence_elidable_only_in_region_with_no_obligations() {
        let f = fo();
        assert!(!f.fence_elidable(), "outside a region: never");
        f.region_enter();
        assert!(f.fence_elidable());
        // A deferred pwb blocks elision...
        assert!(matches!(decide(&f, 1), FlushDecision::Deferred));
        assert!(!f.fence_elidable());
        drain_exec(&f);
        // ...and so does an executed-but-unfenced one.
        assert!(!f.fence_elidable());
        f.on_fence();
        assert!(f.fence_elidable());
        f.region_exit();
        assert!(!f.fence_elidable());
    }

    #[test]
    fn nested_regions_count() {
        let f = fo();
        f.region_enter();
        f.region_enter();
        f.region_exit();
        assert!(f.fence_elidable(), "still one level deep");
        f.region_exit();
        assert!(!f.fence_elidable());
    }

    #[test]
    fn regions_are_per_pool() {
        let a = fo();
        let b = fo();
        a.region_enter();
        assert!(a.fence_elidable());
        assert!(!b.fence_elidable(), "region on a must not leak to b");
        a.region_exit();
    }

    #[test]
    fn reset_forgets_everything() {
        let f = fo();
        f.on_store(4);
        assert!(matches!(decide(&f, 7), FlushDecision::Deferred));
        drain_exec(&f);
        f.reset();
        assert_eq!(f.unfenced.load(Ordering::Relaxed), 0);
        assert_eq!(f.deferred.load(Ordering::Relaxed), 0);
        // Both lines are unknown again → they defer, not elide.
        assert!(matches!(decide(&f, 4), FlushDecision::Deferred));
        assert!(matches!(decide(&f, 7), FlushDecision::Deferred));
    }

    #[test]
    fn export_import_round_trips_decisions() {
        let f = fo();
        f.on_store(2); // dirty
        f.on_store(3);
        assert!(matches!(decide(&f, 3), FlushDecision::Deferred));
        for (l, _) in f.take_deferred() {
            let pre = f.meta[l].load(Ordering::Relaxed);
            f.obligate();
            f.note_real_pwb(l, pre); // 3: flushed, unfenced
        }
        f.on_store(4);
        assert!(matches!(decide(&f, 4), FlushDecision::Deferred)); // buffered
        let snap = f.export_state();
        assert_eq!(snap.unfenced, 1);
        assert_eq!(snap.deferred, vec![(4, 1)]);

        let g = fo();
        g.import_state(&snap);
        // Same decisions on the importer: 2 dirty (defers), 3 flushed
        // (elides), 4 already buffered (coalesces).
        assert!(matches!(decide(&g, 2), FlushDecision::Deferred));
        assert!(matches!(decide(&g, 3), FlushDecision::Elide));
        assert!(matches!(decide(&g, 4), FlushDecision::Coalesced));
        assert!(!{
            g.region_enter();
            let e = g.fence_elidable();
            g.region_exit();
            e
        });
    }

    #[test]
    fn import_after_fence_keeps_clean_lines_clean() {
        let f = fo();
        f.on_store(9);
        assert!(matches!(decide(&f, 9), FlushDecision::Deferred));
        drain_exec(&f);
        f.on_fence(); // 9 is clean now
        let snap = f.export_state();
        let g = fo();
        // Bump g's epoch a few times first: clean must survive any epoch.
        g.on_fence();
        g.on_fence();
        g.import_state(&snap);
        assert!(matches!(decide(&g, 9), FlushDecision::Elide));
    }
}
