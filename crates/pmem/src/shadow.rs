//! Shadow memory: the crash *model* (Model mode).
//!
//! Under the paper's explicit epoch persistency model, a write reaches
//! persistent memory when (a) its cache line is explicitly written back with
//! `pwb` and a later `psync` completes, or (b) the line happens to be
//! evicted. A write that did neither is lost by a crash. The shadow keeps,
//! for every cache line,
//!
//! * the **persisted** image — the content guaranteed durable (committed by
//!   `psync`),
//! * an optional **pending** snapshot — taken at `pwb` time, durable *iff*
//!   the write-back completed before the crash,
//! * while the pool's own word array plays the role of the **volatile**
//!   (cache) view.
//!
//! A simulated crash asks a [`CrashAdversary`] to resolve each line to one
//! of the three images ([`CrashChoice`]); choosing `Volatile` models a
//! spontaneous eviction, `Pending` a completed-but-unsynced write-back, and
//! `Persisted` the maximal loss. Per-location write-backs preserve program
//! order (the three images of a line are temporally ordered), while
//! different lines resolve independently (write-backs of different lines may
//! reorder) — matching Section 2 of the paper.
//!
//! One deliberate simplification: `psync` commits *all* pending snapshots,
//! not just the calling thread's. This only ever makes *more* data durable,
//! never creates a state unreachable on real hardware (the same snapshots
//! could have been evicted), so it cannot mask a false positive in crash
//! tests; it merely under-approximates maximal adversarial loss across
//! concurrently crashing threads.
//!
//! ## Lock-free pending table
//!
//! The pending set used to be a global `Mutex<HashMap>`, which made every
//! `pwb` a lock acquisition. It is now a fixed-geometry per-line table
//! (`nwords` is known at pool creation): one snapshot buffer line, one
//! state word and one intrusive stack link per cache line. `pwb` touches
//! only its own line's words; `psync` steals the queued-lines stack with a
//! single swap and commits line by line. Durability law 4
//! (`persisted_image_never_regresses_under_concurrency`) is preserved by a
//! per-line `WRITING` bit that serializes *both* snapshot capture and
//! persisted-image commits for that line: a snapshot is always read from
//! the live volatile view inside the critical section (never captured
//! early and published late), and commits of a line cannot interleave, so
//! each per-word persisted image only ever moves forward in snapshot time.
//! A line is pushed onto the queued stack inside that same critical
//! section, so a line marked queued is always on a stack some fence will
//! drain.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::addr::WORDS_PER_LINE;

/// How a crash resolves one cache line.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CrashChoice {
    /// The line keeps only its persisted image: every un-synced write to it
    /// is lost (maximal loss).
    Persisted,
    /// The pending `pwb` snapshot made it to memory, writes after the `pwb`
    /// are lost. Falls back to `Persisted` if the line has no pending
    /// snapshot.
    Pending,
    /// The line was evicted at crash time: the full volatile content
    /// survives (minimal loss).
    Volatile,
}

/// Decides, per cache line, what a crash leaves in persistent memory.
pub trait CrashAdversary {
    /// Chooses the surviving image for `line` (which differs between its
    /// volatile and persisted views, and/or has a pending snapshot).
    fn choose(&mut self, line: usize, has_pending: bool) -> CrashChoice;
}

/// Maximal-loss adversary: every un-synced write is dropped.
pub struct PessimistAdversary;

impl CrashAdversary for PessimistAdversary {
    fn choose(&mut self, _line: usize, _has_pending: bool) -> CrashChoice {
        CrashChoice::Persisted
    }
}

/// Minimal-loss adversary: every line behaves as if evicted (all writes
/// survive). Useful to isolate thread-crash handling from memory loss.
pub struct OptimistAdversary;

impl CrashAdversary for OptimistAdversary {
    fn choose(&mut self, _line: usize, _has_pending: bool) -> CrashChoice {
        CrashChoice::Volatile
    }
}

/// Deterministic pseudo-random adversary ([`crate::Rng`]), for randomized
/// crash sweeps that must be reproducible from a seed.
pub struct SeededAdversary {
    rng: crate::Rng,
}

impl SeededAdversary {
    /// Creates an adversary from a non-zero seed (0 is mapped to a fixed
    /// constant).
    pub fn new(seed: u64) -> Self {
        SeededAdversary {
            rng: crate::Rng(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed }),
        }
    }
}

impl CrashAdversary for SeededAdversary {
    fn choose(&mut self, _line: usize, has_pending: bool) -> CrashChoice {
        match self.rng.next() % if has_pending { 3 } else { 2 } {
            0 => CrashChoice::Persisted,
            1 => CrashChoice::Volatile,
            _ => CrashChoice::Pending,
        }
    }
}

pub(crate) type LineSnap = [u64; WORDS_PER_LINE];

// Per-line pending state word bits.
/// The line's snapshot buffer or persisted image is being written; acts as
/// a per-line spinlock (critical sections are a handful of word copies).
const ST_WRITING: u64 = 1;
/// The snapshot buffer holds a pending `pwb` awaiting the next `psync`.
const ST_QUEUED: u64 = 2;
/// Stack-link terminator.
const NIL: u64 = u64::MAX;

/// The shadow images backing Model mode (see module docs).
pub(crate) struct ShadowMem {
    persisted: Box<[AtomicU64]>,
    /// Per-line pending snapshot buffers, same geometry as `persisted`.
    /// Valid for line `l` iff its state word has [`ST_QUEUED`] set.
    pend_buf: Box<[AtomicU64]>,
    /// Per-line [`ST_WRITING`]/[`ST_QUEUED`] word.
    pend_state: Box<[AtomicU64]>,
    /// Per-line intrusive link of the queued-lines stack ([`NIL`]-ended).
    pend_next: Box<[AtomicU64]>,
    /// Treiber stack of lines with a pending snapshot. Pushed on the
    /// not-queued → queued transition only, so a line is on at most one
    /// (stolen or live) list and pop-all is a single swap — no ABA.
    pend_head: AtomicU64,
    /// Number of [`ShadowMem::psync`] calls between steal and commit
    /// completion. A fence must not return while another fence still holds
    /// stolen-but-uncommitted snapshots (see `psync`).
    sync_active: AtomicU64,
}

impl ShadowMem {
    pub(crate) fn new(nwords: usize) -> Self {
        let nlines = nwords.div_ceil(WORDS_PER_LINE);
        ShadowMem {
            persisted: crate::pool::alloc_zeroed_atomics(nwords),
            pend_buf: crate::pool::alloc_zeroed_atomics(nlines * WORDS_PER_LINE),
            pend_state: crate::pool::alloc_zeroed_atomics(nlines),
            pend_next: crate::pool::alloc_zeroed_atomics(nlines),
            pend_head: AtomicU64::new(NIL),
            sync_active: AtomicU64::new(0),
        }
    }

    /// Acquires `line`'s [`ST_WRITING`] bit; returns the pre-acquire state.
    fn lock_line(&self, line: usize) -> u64 {
        loop {
            let s = self.pend_state[line].load(Ordering::Relaxed);
            if s & ST_WRITING == 0
                && self.pend_state[line]
                    .compare_exchange_weak(s, s | ST_WRITING, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                return s;
            }
            std::hint::spin_loop();
        }
    }

    /// Pushes `line` onto the queued-lines stack. Caller guarantees the
    /// line is not already on a list (it just made the not-queued → queued
    /// transition).
    fn push_pending(&self, line: usize) {
        let mut head = self.pend_head.load(Ordering::Relaxed);
        loop {
            self.pend_next[line].store(head, Ordering::Relaxed);
            match self.pend_head.compare_exchange_weak(
                head,
                line as u64,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Records a `pwb` of `line`: snapshots the current volatile content.
    ///
    /// The snapshot is read *while holding* the line's [`ST_WRITING`] bit,
    /// never before. `psync` commits under the same bit, so every committed
    /// snapshot reflects the line at capture time and per-word persisted
    /// images only move forward. If the snapshot were read first, a thread
    /// descheduled between the read and the publish could publish an
    /// arbitrarily old image, and the next `psync` would commit it —
    /// rolling the persisted image *backward* past durably-committed
    /// updates, something no real write-back can do.
    ///
    /// The line is pushed onto the queued stack *before* the [`ST_QUEUED`]
    /// bit is published. Otherwise a second `pwb` could see the bit, skip
    /// its own push, and fence while the line is on no stack and no fence
    /// is active: that fence would return with the snapshot uncommitted
    /// (durability law 4).
    pub(crate) fn pwb(&self, volatile: &[AtomicU64], line: usize) {
        let base = line * WORDS_PER_LINE;
        let s = self.lock_line(line);
        for i in 0..WORDS_PER_LINE {
            self.pend_buf[base + i].store(
                volatile[base + i].load(Ordering::Acquire),
                Ordering::Relaxed,
            );
        }
        // A fence that steals the stack before the bit is published waits
        // on the line's lock, then commits this snapshot.
        if s & ST_QUEUED == 0 {
            self.push_pending(line);
        }
        // Publishes the snapshot and releases the lock in one store.
        self.pend_state[line].store(ST_QUEUED, Ordering::Release);
    }

    /// Commits every pending snapshot to the persisted image (`psync`).
    ///
    /// Steals the whole queued stack with one swap; a `pwb` racing with the
    /// steal either made the stack in time or stays queued for the next
    /// fence — either is a legal write-back schedule.
    ///
    /// The closing drain loop is load-bearing for the durability contract
    /// ("when *my* `psync` returns, *my* earlier `pwb`s are durable"): a
    /// snapshot this caller queued may sit on a stack a *concurrent* fence
    /// stole first, in which case this fence's own swap comes back empty.
    /// Returning at that point would acknowledge durability while the
    /// other fence is still mid-commit — the law-4 regression the
    /// `pending_table_storm` test pins. So a fence waits until no fence
    /// (started before or during the wait) still holds stolen snapshots;
    /// the global mutex this table replaced gave the same guarantee by
    /// serializing fences outright.
    pub(crate) fn psync(&self) {
        self.sync_active.fetch_add(1, Ordering::AcqRel);
        let mut cur = self.pend_head.swap(NIL, Ordering::Acquire);
        while cur != NIL {
            let line = cur as usize;
            self.lock_line(line);
            // Read the link *before* releasing the line: once the state
            // word clears, a concurrent `pwb` may re-queue the line and
            // repoint the link at the new live stack.
            let next = self.pend_next[line].load(Ordering::Relaxed);
            let base = line * WORDS_PER_LINE;
            for i in 0..WORDS_PER_LINE {
                self.persisted[base + i].store(
                    self.pend_buf[base + i].load(Ordering::Relaxed),
                    Ordering::Release,
                );
            }
            // Consumes the snapshot and releases the lock.
            self.pend_state[line].store(0, Ordering::Release);
            cur = next;
        }
        self.sync_active.fetch_sub(1, Ordering::AcqRel);
        while self.sync_active.load(Ordering::Acquire) != 0 {
            std::hint::spin_loop();
        }
    }

    /// Reads the persisted image of a word (test introspection).
    pub(crate) fn persisted_load(&self, word: usize) -> u64 {
        self.persisted[word].load(Ordering::Acquire)
    }

    /// Walks the queued-lines stack at quiescence: yields each line that
    /// still holds a pending snapshot, unsorted. At quiescence every
    /// psync's stolen list has drained, so queued ⇔ on this stack.
    fn queued_lines_unsorted(&self) -> Vec<usize> {
        let mut lines = Vec::new();
        let mut cur = self.pend_head.load(Ordering::Acquire);
        while cur != NIL {
            let line = cur as usize;
            if self.pend_state[line].load(Ordering::Acquire) & ST_QUEUED != 0 {
                lines.push(line);
            }
            cur = self.pend_next[line].load(Ordering::Acquire);
        }
        lines
    }

    /// Drops every pending snapshot (quiescence only).
    fn clear_pending(&self) {
        let mut cur = self.pend_head.swap(NIL, Ordering::Acquire);
        while cur != NIL {
            let line = cur as usize;
            let next = self.pend_next[line].load(Ordering::Relaxed);
            self.pend_state[line].store(0, Ordering::Relaxed);
            cur = next;
        }
    }

    /// Installs `pending` as the entire pending set (quiescence only; the
    /// caller cleared the old set first).
    fn set_pending(&self, pending: &[(usize, LineSnap)]) {
        for &(line, snap) in pending {
            let base = line * WORDS_PER_LINE;
            for (i, w) in snap.iter().enumerate() {
                self.pend_buf[base + i].store(*w, Ordering::Relaxed);
            }
            self.pend_state[line].store(ST_QUEUED, Ordering::Release);
            self.push_pending(line);
        }
    }

    /// Copies out the shadow state covering the first `nwords` words: the
    /// persisted image plus every pending `pwb` snapshot. Requires
    /// quiescence (pool snapshot/restore only).
    pub(crate) fn export(&self, nwords: usize) -> (Vec<u64>, Vec<(usize, LineSnap)>) {
        let persisted = (0..nwords)
            .map(|i| self.persisted[i].load(Ordering::Acquire))
            .collect();
        let mut pending: Vec<(usize, LineSnap)> = self
            .queued_lines_unsorted()
            .into_iter()
            .map(|line| {
                let base = line * WORDS_PER_LINE;
                let snap: LineSnap =
                    std::array::from_fn(|i| self.pend_buf[base + i].load(Ordering::Relaxed));
                (line, snap)
            })
            .collect();
        pending.sort_unstable_by_key(|&(line, _)| line);
        (persisted, pending)
    }

    /// Restores state exported by [`ShadowMem::export`]: writes back the
    /// persisted prefix, zeroes the persisted image up to `zero_to` words
    /// (space the restored-from pool had not yet allocated but the current
    /// one dirtied), and replaces the pending set. Requires quiescence.
    pub(crate) fn import(&self, persisted: &[u64], pending: &[(usize, LineSnap)], zero_to: usize) {
        for (i, w) in persisted.iter().enumerate() {
            self.persisted[i].store(*w, Ordering::Release);
        }
        for i in persisted.len()..zero_to {
            self.persisted[i].store(0, Ordering::Release);
        }
        self.clear_pending();
        self.set_pending(pending);
    }

    /// Resolves a crash: rewrites both the volatile and persisted views of
    /// every line per the adversary's choices. Requires quiescence (no
    /// concurrent pool operations) — callers crash/join all worker threads
    /// first. `nlines` bounds the scan to the allocated prefix of the pool
    /// (untouched lines are identical in both views by construction).
    pub(crate) fn crash(
        &self,
        volatile: &[AtomicU64],
        adversary: &mut dyn CrashAdversary,
        nlines: usize,
    ) {
        for line in 0..nlines {
            self.resolve_line(volatile, adversary, line);
        }
        self.pend_head.store(NIL, Ordering::Release);
    }

    /// [`ShadowMem::crash`] over an explicit ascending line list instead of
    /// the whole allocated prefix. The caller (pool footprint tracking)
    /// guarantees the list covers every line whose views can differ and
    /// every pending snapshot; lines are visited in the same ascending
    /// order as the full scan and clean lines consume no adversary choice,
    /// so a seeded adversary resolves both scans identically.
    pub(crate) fn crash_bounded(
        &self,
        volatile: &[AtomicU64],
        adversary: &mut dyn CrashAdversary,
        lines: &[usize],
    ) {
        for &line in lines {
            self.resolve_line(volatile, adversary, line);
        }
        debug_assert!(
            self.queued_lines_unsorted().is_empty(),
            "crash_bounded missed a pending line"
        );
        self.pend_head.store(NIL, Ordering::Release);
    }

    /// Consumes `line`'s pending snapshot if it has one (quiescence only;
    /// the crash scans reset the stack head once, afterwards).
    fn take_pending(&self, line: usize) -> Option<LineSnap> {
        if self.pend_state[line].load(Ordering::Acquire) & ST_QUEUED == 0 {
            return None;
        }
        let base = line * WORDS_PER_LINE;
        let snap: LineSnap =
            std::array::from_fn(|i| self.pend_buf[base + i].load(Ordering::Relaxed));
        self.pend_state[line].store(0, Ordering::Relaxed);
        Some(snap)
    }

    /// One line of crash resolution (shared by the full and bounded scans):
    /// skip if both views agree and nothing is pending, otherwise let the
    /// adversary pick the surviving image and write it to both views.
    fn resolve_line(
        &self,
        volatile: &[AtomicU64],
        adversary: &mut dyn CrashAdversary,
        line: usize,
    ) {
        let base = line * WORDS_PER_LINE;
        let pending = self.take_pending(line);
        let differs = (0..WORDS_PER_LINE).any(|i| {
            volatile[base + i].load(Ordering::Acquire)
                != self.persisted[base + i].load(Ordering::Acquire)
        });
        if !differs && pending.is_none() {
            return;
        }
        let choice = adversary.choose(line, pending.is_some());
        let image: LineSnap = match (choice, pending) {
            (CrashChoice::Volatile, _) => {
                std::array::from_fn(|i| volatile[base + i].load(Ordering::Acquire))
            }
            (CrashChoice::Pending, Some(snap)) => snap,
            // Pending without a snapshot degrades to the persisted image
            _ => std::array::from_fn(|i| self.persisted[base + i].load(Ordering::Acquire)),
        };
        for (i, w) in image.iter().enumerate() {
            volatile[base + i].store(*w, Ordering::Release);
            self.persisted[base + i].store(*w, Ordering::Release);
        }
    }

    /// Lines that currently hold a pending `pwb` snapshot, ascending.
    pub(crate) fn pending_lines(&self) -> Vec<usize> {
        let mut lines = self.queued_lines_unsorted();
        lines.sort_unstable();
        lines
    }

    /// Incremental counterpart of [`ShadowMem::import`]: rewrites the
    /// persisted image of just `lines` (from `persisted`, zero past its
    /// end) and replaces the pending set. Correct only when every other
    /// line's persisted image already equals the snapshot's — the pool's
    /// footprint tracking establishes exactly that.
    pub(crate) fn import_lines(
        &self,
        lines: &[usize],
        persisted: &[u64],
        pending: &[(usize, LineSnap)],
    ) {
        for &line in lines {
            let base = line * WORDS_PER_LINE;
            for i in 0..WORDS_PER_LINE {
                let w = base + i;
                let v = persisted.get(w).copied().unwrap_or(0);
                self.persisted[w].store(v, Ordering::Release);
            }
        }
        self.clear_pending();
        self.set_pending(pending);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(nwords: usize) -> (Box<[AtomicU64]>, ShadowMem) {
        (
            crate::pool::alloc_zeroed_atomics(nwords),
            ShadowMem::new(nwords),
        )
    }

    #[test]
    fn unflushed_write_lost_under_pessimist() {
        let (vol, sh) = mk(16);
        vol[3].store(7, Ordering::Release);
        sh.crash(&vol, &mut PessimistAdversary, vol.len() / WORDS_PER_LINE);
        assert_eq!(vol[3].load(Ordering::Acquire), 0);
        assert_eq!(sh.persisted_load(3), 0);
    }

    #[test]
    fn pwb_plus_psync_survives_any_adversary() {
        let (vol, sh) = mk(16);
        vol[3].store(7, Ordering::Release);
        sh.pwb(&vol, 0);
        sh.psync();
        sh.crash(&vol, &mut PessimistAdversary, vol.len() / WORDS_PER_LINE);
        assert_eq!(vol[3].load(Ordering::Acquire), 7);
    }

    #[test]
    fn pwb_without_psync_may_or_may_not_survive() {
        // Pending choice keeps it; Persisted choice drops it.
        let (vol, sh) = mk(16);
        vol[3].store(7, Ordering::Release);
        sh.pwb(&vol, 0);
        struct PickPending;
        impl CrashAdversary for PickPending {
            fn choose(&mut self, _: usize, has_pending: bool) -> CrashChoice {
                assert!(has_pending);
                CrashChoice::Pending
            }
        }
        sh.crash(&vol, &mut PickPending, vol.len() / WORDS_PER_LINE);
        assert_eq!(vol[3].load(Ordering::Acquire), 7);

        let (vol2, sh2) = mk(16);
        vol2[3].store(7, Ordering::Release);
        sh2.pwb(&vol2, 0);
        sh2.crash(&vol2, &mut PessimistAdversary, vol2.len() / WORDS_PER_LINE);
        assert_eq!(vol2[3].load(Ordering::Acquire), 0);
    }

    #[test]
    fn write_after_pwb_not_covered_by_pending() {
        let (vol, sh) = mk(16);
        vol[3].store(7, Ordering::Release);
        sh.pwb(&vol, 0);
        vol[3].store(9, Ordering::Release); // dirties the line again
        struct PickPending;
        impl CrashAdversary for PickPending {
            fn choose(&mut self, _: usize, _: bool) -> CrashChoice {
                CrashChoice::Pending
            }
        }
        sh.crash(&vol, &mut PickPending, vol.len() / WORDS_PER_LINE);
        assert_eq!(vol[3].load(Ordering::Acquire), 7); // 9 was never written back
    }

    #[test]
    fn eviction_choice_keeps_everything() {
        let (vol, sh) = mk(16);
        vol[1].store(5, Ordering::Release);
        vol[9].store(6, Ordering::Release);
        sh.crash(&vol, &mut OptimistAdversary, vol.len() / WORDS_PER_LINE);
        assert_eq!(vol[1].load(Ordering::Acquire), 5);
        assert_eq!(vol[9].load(Ordering::Acquire), 6);
        assert_eq!(sh.persisted_load(9), 6);
    }

    #[test]
    fn lines_resolve_independently() {
        let (vol, sh) = mk(16);
        vol[1].store(5, Ordering::Release); // line 0
        vol[9].store(6, Ordering::Release); // line 1
        struct Split;
        impl CrashAdversary for Split {
            fn choose(&mut self, line: usize, _: bool) -> CrashChoice {
                if line == 0 {
                    CrashChoice::Persisted
                } else {
                    CrashChoice::Volatile
                }
            }
        }
        sh.crash(&vol, &mut Split, vol.len() / WORDS_PER_LINE);
        assert_eq!(vol[1].load(Ordering::Acquire), 0);
        assert_eq!(vol[9].load(Ordering::Acquire), 6);
    }

    #[test]
    fn psync_only_commits_snapshot_content() {
        let (vol, sh) = mk(16);
        vol[2].store(1, Ordering::Release);
        sh.pwb(&vol, 0);
        vol[2].store(2, Ordering::Release);
        sh.psync(); // commits the snapshot (1), not the later write (2)
        assert_eq!(sh.persisted_load(2), 1);
        sh.crash(&vol, &mut PessimistAdversary, vol.len() / WORDS_PER_LINE);
        assert_eq!(vol[2].load(Ordering::Acquire), 1);
    }

    /// Races the lock-free pending table directly: writers storm `pwb` +
    /// `psync` over several lines (so queued-stack steals race pushes)
    /// while asserting durability law 4, and the final fence must find
    /// every line — a line whose state says QUEUED but which fell off the
    /// stack would stay stale forever, because later `pwb`s only push on
    /// the not-queued → queued transition.
    #[test]
    fn pending_table_storm_preserves_law_4_and_loses_no_lines() {
        use std::sync::Arc;
        const LINES: usize = 8;
        const WRITERS: usize = 3;
        const ITERS: u64 = 4_000;

        let nwords = LINES * WORDS_PER_LINE;
        let vol = Arc::new(crate::pool::alloc_zeroed_atomics(nwords));
        let sh = Arc::new(ShadowMem::new(nwords));
        let ticket = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        // A dedicated fence hammer maximizes stack-steal vs push races.
        let syncer = {
            let sh = Arc::clone(&sh);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    sh.psync();
                }
            })
        };
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                let vol = Arc::clone(&vol);
                let sh = Arc::clone(&sh);
                let ticket = Arc::clone(&ticket);
                std::thread::spawn(move || {
                    for _ in 0..ITERS {
                        let v = ticket.fetch_add(1, Ordering::Relaxed) + 1;
                        let line = (v as usize) % LINES;
                        let word = line * WORDS_PER_LINE;
                        // CAS-max keeps each cell's history monotone, so
                        // law 4 has a well-defined floor to check against.
                        loop {
                            let cur = vol[word].load(Ordering::Acquire);
                            if cur >= v
                                || vol[word]
                                    .compare_exchange(cur, v, Ordering::AcqRel, Ordering::Acquire)
                                    .is_ok()
                            {
                                break;
                            }
                        }
                        sh.pwb(&vol, line);
                        sh.psync();
                        let persisted = sh.persisted_load(word);
                        assert!(
                            persisted >= v,
                            "law 4 violated: committed {v}, later read {persisted}"
                        );
                    }
                })
            })
            .collect();
        for h in writers {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        syncer.join().unwrap();

        // Quiescent close: one pwb per line + one fence must commit the
        // final volatile image everywhere. A line lost off the queued
        // stack during the storm would fail exactly here.
        for line in 0..LINES {
            sh.pwb(&vol, line);
        }
        sh.psync();
        for w in 0..nwords {
            assert_eq!(
                sh.persisted_load(w),
                vol[w].load(Ordering::Acquire),
                "word {w}: pending line lost during the storm"
            );
        }
    }

    #[test]
    fn seeded_adversary_is_deterministic() {
        let mut a = SeededAdversary::new(42);
        let mut b = SeededAdversary::new(42);
        for line in 0..100 {
            assert_eq!(a.choose(line, line % 2 == 0), b.choose(line, line % 2 == 0));
        }
    }

    #[test]
    fn clean_lines_untouched() {
        let (vol, sh) = mk(16);
        struct MustNotBeAsked;
        impl CrashAdversary for MustNotBeAsked {
            fn choose(&mut self, _: usize, _: bool) -> CrashChoice {
                panic!("adversary consulted for a clean line");
            }
        }
        sh.crash(&vol, &mut MustNotBeAsked, vol.len() / WORDS_PER_LINE);
    }
}
