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
//! ## Pending set
//!
//! The queued snapshots sit behind one `Mutex`: a list of queued lines plus
//! a per-line slot index into it, lazily zeroed like `persisted`. Under the
//! lock, `pwb` reads its snapshot from the live volatile view and queues it
//! (or replaces the line's older one in place) in O(1), and `psync` commits
//! the queued lines in O(queued). One lock serializes every snapshot
//! capture and every commit, so each per-word persisted image only moves
//! forward in snapshot time (durability law 4,
//! `persisted_image_never_regresses_under_concurrency`), and a fence that
//! takes the lock after a `pwb` finds that `pwb`'s snapshot either still
//! queued or already committed. The shadow runs no instrumented event while
//! it holds the lock, so no crash tick or scheduler yield fires inside it.
//! The list keeps a fence's work proportional to the lines queued since
//! the last fence; a `HashMap` keyed by line would drain in time
//! proportional to its capacity, which one resize's run of `pwb`s inflates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

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

/// The shadow images backing Model mode (see module docs).
pub(crate) struct ShadowMem {
    persisted: Box<[AtomicU64]>,
    pending: Mutex<Pending>,
}

/// The `pwb` snapshots awaiting the next `psync` (see module docs).
struct Pending {
    /// One snapshot per queued line, in first-`pwb` order.
    lines: Vec<(usize, LineSnap)>,
    /// Per line, 1 + its index in `lines`, or 0 when it is not queued.
    slot: Box<[usize]>,
}

impl Pending {
    /// Queues `snap` for `line`, replacing the line's older snapshot.
    fn put(&mut self, line: usize, snap: LineSnap) {
        match self.slot[line] {
            0 => {
                self.lines.push((line, snap));
                self.slot[line] = self.lines.len();
            }
            s => self.lines[s - 1].1 = snap,
        }
    }

    /// Dequeues every queued line, in queue order.
    fn drain(&mut self) -> std::vec::Drain<'_, (usize, LineSnap)> {
        for &(line, _) in &self.lines {
            self.slot[line] = 0;
        }
        self.lines.drain(..)
    }
}

impl ShadowMem {
    pub(crate) fn new(nwords: usize) -> Self {
        ShadowMem {
            persisted: crate::pool::alloc_zeroed_atomics(nwords),
            pending: Mutex::new(Pending {
                lines: Vec::new(),
                // `vec![0; n]` allocates zeroed, so the OS maps its pages lazily.
                slot: vec![0; nwords.div_ceil(WORDS_PER_LINE)].into_boxed_slice(),
            }),
        }
    }

    fn pending(&self) -> MutexGuard<'_, Pending> {
        self.pending
            .lock()
            .expect("shadow pending set poisoned: a pwb or psync panicked")
    }

    /// Records a `pwb` of `line`: queues a snapshot of its current volatile
    /// content.
    ///
    /// The snapshot is read *while holding* the pending lock, never before.
    /// `psync` commits under the same lock, so every committed snapshot
    /// reflects the line at capture time and per-word persisted images
    /// only move forward. If the snapshot were read first, a thread
    /// descheduled between the read and the queueing could queue an
    /// arbitrarily old image, and the next `psync` would commit it —
    /// rolling the persisted image *backward* past durably-committed
    /// updates, something no real write-back can do.
    pub(crate) fn pwb(&self, volatile: &[AtomicU64], line: usize) {
        let base = line * WORDS_PER_LINE;
        let mut pending = self.pending();
        let snap = std::array::from_fn(|i| volatile[base + i].load(Ordering::Acquire));
        pending.put(line, snap);
    }

    /// Commits every pending snapshot to the persisted image (`psync`).
    pub(crate) fn psync(&self) {
        let mut pending = self.pending();
        for (line, snap) in pending.drain() {
            let base = line * WORDS_PER_LINE;
            for (i, w) in snap.iter().enumerate() {
                self.persisted[base + i].store(*w, Ordering::Release);
            }
        }
    }

    /// Reads the persisted image of a word (test introspection).
    pub(crate) fn persisted_load(&self, word: usize) -> u64 {
        self.persisted[word].load(Ordering::Acquire)
    }

    /// Copies out the shadow state covering the first `nwords` words: the
    /// persisted image plus every pending `pwb` snapshot, sorted by line.
    /// Requires quiescence (pool snapshot/restore only).
    pub(crate) fn export(&self, nwords: usize) -> (Vec<u64>, Vec<(usize, LineSnap)>) {
        let persisted = (0..nwords)
            .map(|i| self.persisted[i].load(Ordering::Acquire))
            .collect();
        let mut pending = self.pending().lines.clone();
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
        let mut set = self.pending();
        drop(set.drain());
        for &(line, snap) in pending {
            set.put(line, snap);
        }
    }

    /// Resolves a crash: rewrites both the volatile and persisted views of
    /// every line per the adversary's choices, and drops every pending
    /// snapshot. Requires quiescence (no concurrent pool operations) —
    /// callers crash/join all worker threads first. `nlines` bounds the
    /// scan to the allocated prefix of the pool (untouched lines are
    /// identical in both views by construction).
    ///
    /// Lines are visited in ascending order, and a line whose views agree
    /// and that has no pending snapshot is skipped without consulting the
    /// adversary, so a seeded adversary's choices depend only on the lines
    /// that can actually lose data.
    pub(crate) fn crash(
        &self,
        volatile: &[AtomicU64],
        adversary: &mut dyn CrashAdversary,
        nlines: usize,
    ) {
        let mut queued: Vec<_> = self.pending().drain().collect();
        queued.sort_unstable_by_key(|&(line, _)| line);
        let mut queued = queued.into_iter().peekable();
        for line in 0..nlines {
            let base = line * WORDS_PER_LINE;
            let pending = queued.next_if(|&(l, _)| l == line).map(|(_, snap)| snap);
            let differs = (0..WORDS_PER_LINE).any(|i| {
                volatile[base + i].load(Ordering::Acquire)
                    != self.persisted[base + i].load(Ordering::Acquire)
            });
            if !differs && pending.is_none() {
                continue;
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

    /// Races the pending set directly: writers storm `pwb` + `psync` over
    /// several lines while a dedicated fence hammer drains the set, and
    /// every writer asserts durability law 4 after its own fence. The
    /// final fence must then find every line: a line whose slot says
    /// queued but whose snapshot left the list would stay stale forever,
    /// because later `pwb`s replace its snapshot in a list entry no fence
    /// visits.
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

        // A dedicated fence hammer keeps the set draining under the writers.
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
        // final volatile image everywhere. A line lost from the pending
        // set during the storm would fail exactly here.
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

    /// Two `pwb`s of one line before a fence keep only the second
    /// snapshot, and a `pwb` after the fence queues the line afresh.
    #[test]
    fn repeated_pwb_replaces_the_pending_snapshot() {
        struct PickPending;
        impl CrashAdversary for PickPending {
            fn choose(&mut self, _: usize, has_pending: bool) -> CrashChoice {
                assert!(has_pending);
                CrashChoice::Pending
            }
        }
        let (vol, sh) = mk(16);
        let replaced = |vol: &[AtomicU64], sh: &ShadowMem| {
            vol[9].store(1, Ordering::Release);
            sh.pwb(vol, 1);
            vol[9].store(2, Ordering::Release);
            sh.pwb(vol, 1);
            vol[9].store(3, Ordering::Release); // never written back
        };
        replaced(&vol, &sh);
        sh.crash(&vol, &mut PickPending, vol.len() / WORDS_PER_LINE);
        assert_eq!(vol[9].load(Ordering::Acquire), 2);
        assert_eq!(sh.persisted_load(9), 2);

        let (vol, sh) = mk(16);
        replaced(&vol, &sh);
        sh.psync();
        assert_eq!(sh.persisted_load(9), 2);
        // The fence emptied the set; a third pwb must queue the line again.
        sh.pwb(&vol, 1);
        assert_eq!(sh.export(vol.len()).1, vec![(1, [0, 3, 0, 0, 0, 0, 0, 0])]);
        sh.psync();
        assert_eq!(sh.persisted_load(9), 3);
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
