//! `palloc` — a recoverable free-list allocator layered on the bump arena.
//!
//! The paper leaves recoverable memory management to future work (§7) and
//! the base pool mirrors that: [`PmemPool::alloc_lines`] is a monotone bump
//! arena that never recycles, which caps every workload at arena size and
//! keeps allocation invisible to the crash-sweep engines. This module
//! closes both gaps. A pool built with [`crate::PoolCfg::reclaim`] reserves
//! one persistent *metadata line* per thread, and every allocator step goes
//! through the instrumented word primitives (`store`/`pwb`/`pfence`), so
//! the sweep and explore engines can place a crash inside an allocation or
//! a free exactly as they do inside a data-structure operation.
//!
//! ## Metadata layout
//!
//! Thread `q`'s metadata line holds eight *counted heads* (words, off the
//! line base):
//!
//! | word | contents |
//! |------|----------|
//! | 0..4 | free-list heads for size classes 1–4 (lines per block)     |
//! | 4..8 | limbo-list heads for size classes 1–4 (retired, not yet free) |
//!
//! A head word packs the list's first block (its line index, low 32 bits)
//! and the list's length (high 32 bits), so one store moves both; the
//! empty list is the word 0. [`PmemPool::new`] asserts that a reclaiming
//! pool has fewer than 2³² lines, which bounds both fields. A listed block
//! links to the next block of its list through its **last word**
//! (`addr + 8·class − 1`), a plain word address, deliberately leaving the
//! rest of the block untouched: a retired block can still have legitimate
//! post-mortem readers — a crash right after an operation completed
//! recovers by re-reading the operation's (already retired) descriptor's
//! header and result words, and an idempotent help replay may re-examine a
//! removed node's info field. Only the link word is sacrificed, and no
//! recovery path reads a block's last word.
//!
//! Every walk of a list stops after the head's count, so the link word of
//! a list's last block is never read: it may name anything. That is what
//! lets a drain splice a whole limbo list in a constant number of flushes.
//!
//! ## Why the protocols are crash-safe
//!
//! Every list is **single-owner**: only thread `q` (or, during quiescent
//! drains and recovery, the unique thread standing in for `q`) mutates
//! `q`'s heads. The crash model resolves a cache line as a whole to one of
//! its images, each a prefix of the stores made to it, so a head word
//! survives as its old or its new value and two stores to the metadata
//! line survive in program order (the hash map's header relies on the same
//! property).
//!
//! * **alloc** pops with one store, `free_c := (b.link, n − 1)`, then
//!   `pwb` and `psync` before the block is zeroed or its address escapes.
//!   A crash before the `psync` leaves either head; with the old one the
//!   block is still listed and its link word intact (zeroing comes after
//!   the `psync`). A crash after it leaks the block: the caller may never
//!   have linked it anywhere.
//! * **retire** first writes the block's link word, `b.link := limbo_c`'s
//!   first block, and makes it durable (`pwb`, `pfence`); then it pushes,
//!   `limbo_c := (b, n + 1)`, with `pwb` and `psync`. A surviving push
//!   therefore always finds a durable link. A crash before the push is
//!   durable leaks the block, which its structure has already unlinked.
//! * **drain** splices each nonempty limbo list onto its class free list.
//!   Its tail `t` is the block a retire pushed onto the empty list, kept
//!   as a volatile hint; after a crash or a restore forgot the hints, a
//!   load-only walk bounded by the limbo count finds it. The drain stores
//!   `t.link := free_c`'s first block (`pwb`, `pfence`), then, on the
//!   metadata line, `free_c := (limbo_c's first block, n + m)` *before*
//!   `limbo_c := 0`, and one `pwb` and `psync`. A crash before the
//!   head stores leaves both lists as they were (a rewritten tail link lies
//!   past the limbo count). A crash between them can leave the one image
//!   where `free_c` already holds the whole splice and `limbo_c` still
//!   names its first block, which recovery repairs. Nothing leaks.
//!
//! [`PmemPool::recover_allocator`] therefore reads heads only: it clears
//! each limbo head that names its class's free head (no block is on two
//! lists otherwise) and sums the free counts into the volatile accounting.
//! The blocks a crash can leak are the blocks the crashed thread's
//! in-flight operation allocated or retired — the bound the system already
//! has, since an operation that crashes after `palloc` returned leaks its
//! new nodes anyway.
//!
//! ## Deferred reclamation and ABA
//!
//! [`PmemPool::pretire_lines`] never makes a block allocatable directly:
//! it parks it on the owner's limbo list. Only [`PmemPool::palloc_drain`]
//! — which callers must invoke **at quiescent points only** (no
//! data-structure operation in flight on any thread) — moves limbo blocks
//! to the free lists. Because no operation or helper window spans a
//! quiescence point, no thread can hold a stale pointer to a block when it
//! becomes reallocatable: the repo-wide "addresses are never reused inside
//! an operation's window" ABA argument survives reclamation intact. The
//! same argument covers post-mortem readers: a crashed thread's recovery
//! re-reads its last descriptor only if no later operation began, so the
//! descriptor may sit on a list but cannot yet have been re-issued and
//! zeroed. A debug-build ledger asserts the re-issue invariant: the pop
//! path checks that no address still in limbo is ever handed out.
//!
//! Recycled blocks are zeroed on allocation with *uninstrumented* stores
//! (fresh-zero semantics, identical to bump memory). Durability of the
//! zeros rides the caller's own pre-publication `pwb`+`pfence` of the new
//! object — a block whose zeroing was cut short by a crash has already
//! left its list for good, so it is leaked, never observed.

use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(debug_assertions)]
use std::sync::PoisonError;

use crate::addr::{PAddr, WORDS_PER_LINE};
use crate::persist::SiteId;
use crate::pool::PmemPool;

/// Largest block size (in lines) served by the free lists; larger requests
/// fall through to the bump arena and are never recycled.
pub const MAX_CLASS: usize = 4;

/// `pwb` site: class free-list head updates.
pub const P_HEAD: SiteId = SiteId(56);
/// `pwb` site: limbo-list head updates.
pub const P_LIMBO: SiteId = SiteId(57);
/// `pwb` site: a listed block's link word.
pub const P_BLOCK: SiteId = SiteId(59);

/// All allocator sites with human-readable names. These occupy the high
/// end of the site space (56–59), clear of every algorithm crate's sites;
/// they must stay **enabled** whenever the pool was built with `reclaim` —
/// masking them removes the flushes the recovery argument above depends
/// on.
pub const PALLOC_SITES: [(SiteId, &str); 3] = [
    (P_HEAD, "palloc-head"),
    (P_LIMBO, "palloc-limbo"),
    (P_BLOCK, "palloc-block"),
];

/// Lines a reclaiming pool may have: a head's two 32-bit fields hold a line
/// index and a list length, and neither can exceed the line count.
pub(crate) const MAX_RECLAIM_LINES: usize = u32::MAX as usize;

/// A counted head: first block `addr` (a word address) and list length `n`.
fn pack(addr: u64, n: u64) -> u64 {
    debug_assert!(addr.is_multiple_of(WORDS_PER_LINE as u64) && n <= u32::MAX as u64);
    if n == 0 {
        return 0;
    }
    (addr / WORDS_PER_LINE as u64) | (n << 32)
}

/// `(first block's word address, length)` of a counted head.
fn unpack(w: u64) -> (u64, u64) {
    ((w & u32::MAX as u64) * WORDS_PER_LINE as u64, w >> 32)
}

/// Word index of a block's link word: its last word.
fn link_word(addr: u64, class: usize) -> usize {
    addr as usize + class * WORDS_PER_LINE - 1
}

/// Word offset of class `c`'s free-list head in a metadata line.
fn free_off(c: usize) -> usize {
    c - 1
}

/// Word offset of class `c`'s limbo-list head in a metadata line.
fn limbo_off(c: usize) -> usize {
    MAX_CLASS + c - 1
}

/// The blocks of one counted list, first to last, read uninstrumented.
/// A block's link word is read only when the walk moves past it, so a
/// caller can vet each block before its link is followed.
struct Walk<'a> {
    pool: &'a PmemPool,
    class: usize,
    block: u64,
    left: u64,
    started: bool,
}

impl Iterator for Walk<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.left == 0 {
            return None;
        }
        if self.started {
            self.block = self.pool.raw_load(link_word(self.block, self.class));
        }
        self.started = true;
        self.left -= 1;
        Some(self.block)
    }
}

impl PmemPool {
    fn meta_word(&self, tid: usize, off: usize) -> PAddr {
        debug_assert!(self.reclaim);
        assert!(
            tid < self.max_threads(),
            "palloc tid {tid} >= max_threads {}",
            self.max_threads()
        );
        PAddr((self.palloc_base + tid * WORDS_PER_LINE + off) as u64)
    }

    /// The head word at `off` of `tid`'s metadata line, read uninstrumented.
    fn head(&self, tid: usize, off: usize) -> u64 {
        self.raw_load(self.palloc_base + tid * WORDS_PER_LINE + off)
    }

    /// Thread `tid`'s class-`c` limbo tail hint (see `limbo_tails`).
    fn tail_hint(&self, tid: usize, c: usize) -> &AtomicU64 {
        &self.limbo_tails[tid * MAX_CLASS + c - 1]
    }

    /// Walks the class-`c` list whose head word is `head`.
    fn walk(&self, head: u64, c: usize) -> Walk<'_> {
        let (block, left) = unpack(head);
        Walk {
            pool: self,
            class: c,
            block,
            left,
            started: false,
        }
    }

    /// Allocates `nlines` zeroed cache lines for thread `tid`, recycling a
    /// retired block of the same size class when one is available.
    ///
    /// On a pool built without [`crate::PoolCfg::reclaim`] (or for
    /// `nlines > `[`MAX_CLASS`]) this is *exactly* [`Self::alloc_lines`]:
    /// no metadata is touched and no instrumented event is executed, so
    /// reclaim-off event counts are bit-identical to the pure bump arena.
    ///
    /// # Panics
    /// On pool exhaustion, with the same actionable message as
    /// [`Self::alloc_lines`].
    pub fn palloc_lines(&self, tid: usize, nlines: usize) -> PAddr {
        if !self.reclaim || nlines == 0 || nlines > MAX_CLASS {
            return self.alloc_lines(nlines);
        }
        let c = nlines;
        let head_a = self.meta_word(tid, free_off(c));
        let (b, n) = unpack(self.raw_load(head_a.word()));
        if n == 0 {
            return self.alloc_lines(nlines);
        }
        // Stop counting the block as free *before* the pop can take effect,
        // so `remaining_lines` stays a lower bound throughout. A crash that
        // aborts the pop is repaired by the post-recovery recount.
        let _ = self
            .free_lines
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(c))
            });
        // Pop, durable before the link word is zeroed or the address escapes.
        let next = if n > 1 {
            self.raw_load(link_word(b, c))
        } else {
            0
        };
        self.store_at(head_a, pack(next, n - 1), P_HEAD);
        self.pwb(head_a, P_HEAD);
        self.psync();
        #[cfg(debug_assertions)]
        {
            let retired = self
                .retired_debug
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            assert!(
                !retired.contains(&b),
                "retired address {b:#x} re-issued before a full epoch quiescence"
            );
        }
        // Fresh-zero semantics (uninstrumented; see module docs).
        self.raw_zero_words(b as usize, c * WORDS_PER_LINE);
        PAddr(b)
    }

    /// Retires a `nlines`-line block that thread `tid` has just unlinked
    /// from its structure: parks it on `tid`'s limbo list, to become
    /// allocatable only after the next quiescent [`Self::palloc_drain`].
    ///
    /// The caller must guarantee the block's removal from the structure is
    /// durable *before* retiring it (otherwise a crash could leave it
    /// reachable from both the structure and a list), and that no recovery
    /// path reads the block's last word — the list link overwrites it
    /// immediately. No-op without [`crate::PoolCfg::reclaim`] or for
    /// blocks above [`MAX_CLASS`] — those keep the bump arena's
    /// leak-forever semantics.
    pub fn pretire_lines(&self, tid: usize, addr: PAddr, nlines: usize) {
        if !self.reclaim || nlines == 0 || nlines > MAX_CLASS {
            return;
        }
        let c = nlines;
        let a = addr.raw();
        debug_assert!(
            addr.word() >= self.heap_base && addr.word().is_multiple_of(WORDS_PER_LINE),
            "pretire_lines: {a:#x} is not a heap block"
        );
        let limbo_a = self.meta_word(tid, limbo_off(c));
        let (h, n) = unpack(self.raw_load(limbo_a.word()));
        // Link the block to the list, durably, before the head names it.
        let link = PAddr(link_word(a, c) as u64);
        self.store_at(link, h, P_BLOCK);
        self.pwb(link, P_BLOCK);
        self.pfence();
        self.store_at(limbo_a, pack(a, n + 1), P_LIMBO);
        self.pwb(limbo_a, P_LIMBO);
        self.psync();
        if n == 0 {
            self.tail_hint(tid, c).store(a, Ordering::Relaxed);
        }
        #[cfg(debug_assertions)]
        self.retired_debug
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(a);
    }

    /// Drains thread `tid`'s limbo lists onto its class free lists, one
    /// splice per nonempty class (see module docs).
    ///
    /// **Quiescence contract:** callers may invoke this only when no
    /// data-structure operation is in flight on any thread — the drain is
    /// the epoch boundary after which retired addresses may be re-issued,
    /// and the ABA argument (module docs) rests on no operation window
    /// spanning it.
    pub fn palloc_drain(&self, tid: usize) {
        if !self.reclaim {
            return;
        }
        for c in 1..=MAX_CLASS {
            let limbo_a = self.meta_word(tid, limbo_off(c));
            let limbo = self.raw_load(limbo_a.word());
            if limbo == 0 {
                continue;
            }
            let (first, n) = unpack(limbo);
            // The tail: the retire's hint, or a load-only walk bounded by
            // the count when a quiescent point has forgotten the hint.
            let tail = match self.tail_hint(tid, c).swap(0, Ordering::Relaxed) {
                0 => self.walk(limbo, c).last().unwrap_or(first),
                hint => hint,
            };
            #[cfg(debug_assertions)]
            {
                let mut ledger = self
                    .retired_debug
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let mut last = first;
                for b in self.walk(limbo, c) {
                    ledger.remove(&b);
                    last = b;
                }
                assert_eq!(last, tail, "stale limbo tail hint");
            }
            let head_a = self.meta_word(tid, free_off(c));
            let (f, m) = unpack(self.raw_load(head_a.word()));
            // 1. Chain the free list behind the limbo tail, durably.
            let link = PAddr(link_word(tail, c) as u64);
            self.store_at(link, f, P_BLOCK);
            self.pwb(link, P_BLOCK);
            self.pfence();
            // 2. Publish the spliced list, then retire the limbo head: same
            //    line, this order (recovery repairs the image in between).
            self.store_at(head_a, pack(first, n + m), P_HEAD);
            self.store_at(limbo_a, 0, P_LIMBO);
            self.pwb(head_a, P_HEAD);
            self.psync();
            // Only now are the blocks genuinely allocatable.
            self.free_lines.fetch_add(c * n as usize, Ordering::SeqCst);
        }
    }

    /// [`Self::palloc_drain`] for every thread with a nonempty limbo list.
    /// Idle threads are skipped with an uninstrumented peek, so quiescent
    /// boundaries in sweeps cost zero events for threads that freed
    /// nothing. Same quiescence contract as `palloc_drain`.
    pub fn palloc_drain_all(&self) {
        if !self.reclaim {
            return;
        }
        for tid in 0..self.max_threads() {
            if (1..=MAX_CLASS).any(|c| self.head(tid, limbo_off(c)) != 0) {
                self.palloc_drain(tid);
            }
        }
    }

    /// Post-crash allocator recovery: repairs the one image an interrupted
    /// drain can leave (a limbo head naming its class's free head, see the
    /// module docs), then rebuilds the volatile accounting. Reads heads
    /// only. Must run after [`Self::crash`] and before any structure
    /// recovery allocates. Idempotent; a no-op without
    /// [`crate::PoolCfg::reclaim`].
    pub fn recover_allocator(&self) {
        if !self.reclaim {
            return;
        }
        for tid in 0..self.max_threads() {
            for c in 1..=MAX_CLASS {
                let limbo = self.head(tid, limbo_off(c));
                if limbo != 0 && unpack(limbo).0 == unpack(self.head(tid, free_off(c))).0 {
                    let limbo_a = self.meta_word(tid, limbo_off(c));
                    self.store_at(limbo_a, 0, P_LIMBO);
                    self.pwb(limbo_a, P_LIMBO);
                    self.psync();
                }
            }
        }
        self.refresh_palloc_accounting();
    }

    /// `(addr, class)` of every block on the lists at `off(class)` of
    /// every metadata line, read uninstrumented.
    fn listed_blocks(&self, off: fn(usize) -> usize) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        if !self.reclaim {
            return out;
        }
        for tid in 0..self.max_threads() {
            for c in 1..=MAX_CLASS {
                out.extend(self.walk(self.head(tid, off(c)), c).map(|b| (b, c)));
            }
        }
        out
    }

    /// Every block currently on a class free list, as `(addr, class)`
    /// pairs, gathered with uninstrumented reads (audit/test use).
    pub fn palloc_free_blocks(&self) -> Vec<(u64, usize)> {
        self.listed_blocks(free_off)
    }

    /// Every block currently on a limbo list, as `(addr, class)` pairs,
    /// gathered with uninstrumented reads (audit/test use).
    pub fn palloc_limbo_blocks(&self) -> Vec<(u64, usize)> {
        self.listed_blocks(limbo_off)
    }

    /// Structural audit of the allocator's persistent state, for verdict
    /// phases: every free/limbo block is line-aligned and inside the
    /// allocated heap, every list holds exactly as many blocks as its head
    /// counts, every block appears on exactly one list, and no two blocks
    /// overlap. Uninstrumented — safe to call from traced verdict phases.
    ///
    /// Returns `Err` with a description of the first violation found.
    pub fn palloc_check(&self) -> Result<(), String> {
        if !self.reclaim {
            return Ok(());
        }
        let wm = self.alloc_watermark() as u64;
        let mut blocks: Vec<(u64, usize, String)> = Vec::new();
        for tid in 0..self.max_threads() {
            for (kind, off) in [
                ("free", free_off as fn(usize) -> usize),
                ("limbo", limbo_off),
            ] {
                for c in 1..=MAX_CLASS {
                    let list = format!("tid {tid} class-{c} {kind} list");
                    let head = self.head(tid, off(c));
                    let n = unpack(head).1;
                    if n as usize > self.nwords() / WORDS_PER_LINE {
                        return Err(format!("{list}: count {n} exceeds the pool"));
                    }
                    for (i, b) in self.walk(head, c).enumerate() {
                        if b == 0 {
                            return Err(format!("{list}: count {n} but the list ends after {i}"));
                        }
                        if (b as usize) < self.heap_base
                            || b + (c * WORDS_PER_LINE) as u64 > wm
                            || !b.is_multiple_of(WORDS_PER_LINE as u64)
                        {
                            return Err(format!("{list}: block {b:#x} outside the heap"));
                        }
                        blocks.push((b, c, list.clone()));
                    }
                }
            }
        }
        blocks.sort_unstable_by_key(|&(b, _, _)| b);
        for pair in blocks.windows(2) {
            let (a, ca, ref la) = pair[0];
            let (b, _, ref lb) = pair[1];
            if a == b {
                return Err(format!("block {a:#x} listed twice: {la} and {lb}"));
            }
            if a + (ca * WORDS_PER_LINE) as u64 > b {
                return Err(format!(
                    "block {a:#x} (class {ca}, {la}) overlaps block {b:#x} ({lb})"
                ));
            }
        }
        Ok(())
    }

    /// Rebuilds the volatile allocator accounting (the `remaining_lines`
    /// free counter and, in debug builds, the retired-address ledger) from
    /// the persistent heads, and forgets the limbo tail hints. Called at
    /// the quiescent points — `restore`, `crash` resolution, and the end of
    /// recovery — where the lists are the only source of truth.
    pub(crate) fn refresh_palloc_accounting(&self) {
        let free = (0..self.max_threads())
            .flat_map(|tid| (1..=MAX_CLASS).map(move |c| (tid, c)))
            .map(|(tid, c)| c * unpack(self.head(tid, free_off(c))).1 as usize)
            .sum();
        self.free_lines.store(free, Ordering::SeqCst);
        for hint in self.limbo_tails.iter() {
            hint.store(0, Ordering::Relaxed);
        }
        #[cfg(debug_assertions)]
        {
            let retired = self
                .palloc_limbo_blocks()
                .into_iter()
                .map(|(b, _)| b)
                .collect();
            *self
                .retired_debug
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = retired;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::run_crashable;
    use crate::pool::{PmemPool, PoolCfg};
    use crate::shadow::{PessimistAdversary, SeededAdversary};

    fn reclaim_pool(capacity: usize) -> PmemPool {
        PmemPool::new(PoolCfg {
            reclaim: true,
            ..PoolCfg::model(capacity)
        })
    }

    #[test]
    fn recycles_after_retire_and_drain() {
        let p = reclaim_pool(1 << 20);
        let a = p.palloc_lines(0, 1);
        p.store(a, 77);
        p.pretire_lines(0, a, 1);
        // Still in limbo: not allocatable yet.
        let b = p.palloc_lines(0, 1);
        assert_ne!(a, b, "limbo block re-issued before quiescence");
        p.palloc_drain(0);
        let c = p.palloc_lines(0, 1);
        assert_eq!(a, c, "drained block was not recycled");
        assert_eq!(p.load(c), 0, "recycled block must be zeroed");
    }

    #[test]
    fn retire_preserves_block_payload_words() {
        // Post-mortem readers (a completed op's recovery) may re-read a
        // retired descriptor's header/result; only the last word may go.
        let p = reclaim_pool(1 << 20);
        let a = p.palloc_lines(0, 3);
        for i in 0..23 {
            p.store(a.add(i), 1000 + i);
        }
        p.pretire_lines(0, a, 3);
        for i in 0..23 {
            assert_eq!(p.load(a.add(i)), 1000 + i, "word {i} clobbered by retire");
        }
    }

    #[test]
    fn classes_are_segregated() {
        let p = reclaim_pool(1 << 20);
        let a1 = p.palloc_lines(0, 1);
        let a3 = p.palloc_lines(0, 3);
        p.pretire_lines(0, a1, 1);
        p.pretire_lines(0, a3, 3);
        p.palloc_drain(0);
        assert_eq!(p.palloc_lines(0, 3), a3);
        assert_eq!(p.palloc_lines(0, 1), a1);
    }

    #[test]
    fn oversize_blocks_fall_back_to_bump() {
        let p = reclaim_pool(1 << 20);
        let a = p.palloc_lines(0, MAX_CLASS + 1);
        p.pretire_lines(0, a, MAX_CLASS + 1); // no-op: leaks, arena-style
        p.palloc_drain(0);
        assert!(p.palloc_limbo_blocks().is_empty());
        assert_ne!(p.palloc_lines(0, MAX_CLASS + 1), a);
    }

    #[test]
    fn reclaim_off_pool_is_pure_bump() {
        let p = PmemPool::new(PoolCfg {
            trace: true,
            ..PoolCfg::model(1 << 20)
        });
        let a = p.palloc_lines(0, 1);
        p.pretire_lines(0, a, 1);
        p.palloc_drain(0);
        p.recover_allocator();
        assert_eq!(
            p.trace_snapshot().total(),
            0,
            "reclaim-off allocator paths must execute zero instrumented events"
        );
        assert_ne!(p.palloc_lines(0, 1), a, "bump arena never recycles");
        assert!(p.palloc_check().is_ok());
    }

    #[test]
    fn remaining_lines_is_a_lower_bound_through_the_lifecycle() {
        let p = reclaim_pool(1 << 20);
        let before = p.remaining_lines();
        let a = p.palloc_lines(0, 2);
        assert_eq!(p.remaining_lines(), before - 2);
        p.pretire_lines(0, a, 2);
        // Limbo blocks are not allocatable: still excluded.
        assert_eq!(p.remaining_lines(), before - 2);
        p.palloc_drain(0);
        assert_eq!(p.remaining_lines(), before, "drained block counts again");
        let b = p.palloc_lines(0, 2);
        assert_eq!(b, a);
        assert_eq!(p.remaining_lines(), before - 2);
    }

    /// The tentpole's longevity criterion: with reclamation on, a churn
    /// loop runs ≥10× more allocations than the arena capacity allows at
    /// the same pool size.
    #[test]
    fn churn_runs_10x_past_arena_capacity() {
        let p = reclaim_pool(1 << 20);
        let arena_cap = p.remaining_lines();
        for _ in 0..10 * arena_cap {
            // Panics with the pool's exhaustion message if reclamation
            // ever fails to keep up.
            let a = p.palloc_lines(0, 1);
            p.pretire_lines(0, a, 1);
            p.palloc_drain(0);
        }
        assert!(
            p.remaining_lines() > 0,
            "churn loop exhausted the pool despite reclamation"
        );
        assert!(p.palloc_check().is_ok());
    }

    /// Satellite: crash at every instrumented event of one recycled
    /// allocation; after `recover_allocator` the heap-walk audit must show
    /// no double-allocate and at most a one-block bounded leak.
    #[test]
    fn alloc_crash_swept_at_every_event() {
        // Count the events of a recycled alloc once.
        let count = {
            let p = reclaim_pool(1 << 20);
            let a = p.palloc_lines(0, 1);
            p.pretire_lines(0, a, 1);
            p.palloc_drain(0);
            p.set_trace_enabled(true);
            let before = p.trace_event_total();
            p.palloc_lines(0, 1);
            p.trace_event_total() - before
        };
        assert!(count > 0, "recycled alloc must be instrumented");
        for seeded in [false, true] {
            for k in 0..count {
                let p = reclaim_pool(1 << 20);
                let a = p.palloc_lines(0, 1);
                p.pretire_lines(0, a, 1);
                p.palloc_drain(0);
                let free_before = p.palloc_free_blocks();
                assert_eq!(free_before, vec![(a.raw(), 1)]);
                p.crash_ctl().arm_after(k);
                assert!(
                    run_crashable(|| p.palloc_lines(0, 1)).is_none(),
                    "crash point {k} did not fire"
                );
                if seeded {
                    p.crash(&mut SeededAdversary::new(k ^ 0x5EED));
                } else {
                    p.crash(&mut PessimistAdversary);
                }
                p.recover_allocator();
                p.palloc_check().unwrap_or_else(|e| {
                    panic!("audit failed after alloc crash at {k} (seeded={seeded}): {e}")
                });
                let free = p.palloc_free_blocks();
                assert!(p.palloc_limbo_blocks().is_empty());
                // Either the block is back on the free list (pop undone or
                // pushed back) or it leaked — bounded to this one block.
                assert!(
                    free == vec![(a.raw(), 1)] || free.is_empty(),
                    "alloc crash at {k}: unexpected free set {free:?}"
                );
                // No double-allocate: two fresh allocations are disjoint
                // and at most one of them recycles the block.
                let x = p.palloc_lines(0, 1);
                let y = p.palloc_lines(0, 1);
                assert_ne!(x, y, "alloc crash at {k} double-allocated");
            }
        }
    }

    /// Satellite: crash at every instrumented event of one retire; the
    /// block must end up in limbo exactly once or leak (bounded), never
    /// reach a free list, and never be double-linked.
    #[test]
    fn retire_crash_swept_at_every_event() {
        let count = {
            let p = reclaim_pool(1 << 20);
            let a = p.palloc_lines(0, 1);
            p.set_trace_enabled(true);
            let before = p.trace_event_total();
            p.pretire_lines(0, a, 1);
            p.trace_event_total() - before
        };
        assert!(count > 0, "retire must be instrumented");
        for seeded in [false, true] {
            for k in 0..count {
                let p = reclaim_pool(1 << 20);
                let a = p.palloc_lines(0, 1);
                p.crash_ctl().arm_after(k);
                assert!(
                    run_crashable(|| p.pretire_lines(0, a, 1)).is_none(),
                    "crash point {k} did not fire"
                );
                if seeded {
                    p.crash(&mut SeededAdversary::new(k ^ 0xF00D));
                } else {
                    p.crash(&mut PessimistAdversary);
                }
                p.recover_allocator();
                p.palloc_check().unwrap_or_else(|e| {
                    panic!("audit failed after retire crash at {k} (seeded={seeded}): {e}")
                });
                assert!(p.palloc_free_blocks().is_empty());
                let limbo = p.palloc_limbo_blocks();
                assert!(
                    limbo == vec![(a.raw(), 1)] || limbo.is_empty(),
                    "retire crash at {k}: unexpected limbo set {limbo:?}"
                );
            }
        }
    }

    /// Crash at every instrumented event of a drain (the limbo → free-list
    /// splice): the block must land on exactly one list — never both (the
    /// double-allocate hazard the splice ordering exists to prevent), and
    /// never neither (a drain leaks nothing).
    #[test]
    fn drain_crash_swept_at_every_event() {
        let count = {
            let p = reclaim_pool(1 << 20);
            let a = p.palloc_lines(0, 1);
            p.pretire_lines(0, a, 1);
            p.set_trace_enabled(true);
            let before = p.trace_event_total();
            p.palloc_drain(0);
            p.trace_event_total() - before
        };
        assert!(count > 0, "drain must be instrumented");
        for seeded in [false, true] {
            for k in 0..count {
                let p = reclaim_pool(1 << 20);
                let a = p.palloc_lines(0, 1);
                p.pretire_lines(0, a, 1);
                p.crash_ctl().arm_after(k);
                assert!(
                    run_crashable(|| p.palloc_drain(0)).is_none(),
                    "crash point {k} did not fire"
                );
                if seeded {
                    p.crash(&mut SeededAdversary::new(k ^ 0xD8A1));
                } else {
                    p.crash(&mut PessimistAdversary);
                }
                p.recover_allocator();
                p.palloc_check().unwrap_or_else(|e| {
                    panic!("audit failed after drain crash at {k} (seeded={seeded}): {e}")
                });
                let free = p.palloc_free_blocks();
                let limbo = p.palloc_limbo_blocks();
                assert_eq!(
                    free.len() + limbo.len(),
                    1,
                    "drain crash at {k}: block not on exactly one list (free={free:?}, limbo={limbo:?})"
                );
                // Wherever it landed, a follow-up drain + alloc must
                // re-issue it exactly once.
                p.palloc_drain(0);
                assert_eq!(p.palloc_lines(0, 1), a);
                assert_ne!(p.palloc_lines(0, 1), a, "double-allocate after drain crash");
            }
        }
    }

    /// Crash at every instrumented event of a drain that splices three
    /// class-1 limbo blocks over a nonempty class-1 free list, plus one
    /// class-2 block, under the pessimist and three seeded adversaries.
    /// Recovery, run twice, must leave every block on exactly one list,
    /// and a follow-up drain plus allocs must issue each block exactly
    /// once.
    #[test]
    fn splice_crash_swept_at_every_event() {
        // Two class-1 blocks free; three class-1 and one class-2 in limbo.
        let setup = || {
            let p = reclaim_pool(1 << 20);
            let blocks: Vec<(PAddr, usize)> = [1, 1, 1, 1, 1, 2]
                .into_iter()
                .map(|c| (p.palloc_lines(0, c), c))
                .collect();
            for &(b, c) in &blocks[..2] {
                p.pretire_lines(0, b, c);
            }
            p.palloc_drain(0);
            for &(b, c) in &blocks[2..] {
                p.pretire_lines(0, b, c);
            }
            let mut all: Vec<(u64, usize)> = blocks.iter().map(|&(b, c)| (b.raw(), c)).collect();
            all.sort_unstable();
            (p, all)
        };
        let lists = |p: &PmemPool| (p.palloc_free_blocks(), p.palloc_limbo_blocks());
        let count = {
            let (p, _) = setup();
            p.set_trace_enabled(true);
            let before = p.trace_event_total();
            p.palloc_drain(0);
            p.trace_event_total() - before
        };
        assert!(count > 0, "drain must be instrumented");
        for adversary in 0..4u64 {
            for k in 0..count {
                let (p, all) = setup();
                p.crash_ctl().arm_after(k);
                assert!(
                    run_crashable(|| p.palloc_drain(0)).is_none(),
                    "crash point {k} did not fire"
                );
                if adversary == 0 {
                    p.crash(&mut PessimistAdversary);
                } else {
                    p.crash(&mut SeededAdversary::new(k << 8 ^ adversary ^ 0x5911CE));
                }
                let at = format!("splice crash at {k} (adversary {adversary})");
                p.recover_allocator();
                let once = lists(&p);
                p.recover_allocator();
                assert_eq!(once, lists(&p), "{at}: recover_allocator is not idempotent");
                p.palloc_check()
                    .unwrap_or_else(|e| panic!("{at}: audit failed: {e}"));
                let mut listed: Vec<(u64, usize)> = once.0.into_iter().chain(once.1).collect();
                listed.sort_unstable();
                assert_eq!(listed, all, "{at}: a block leaked or is listed twice");
                p.palloc_drain(0);
                let mut issued: Vec<(u64, usize)> = all
                    .iter()
                    .map(|&(_, c)| (p.palloc_lines(0, c).raw(), c))
                    .collect();
                issued.sort_unstable();
                assert_eq!(issued, all, "{at}: blocks not issued exactly once");
            }
        }
    }

    /// `recover_allocator` is idempotent: running it twice (a crash during
    /// recovery re-runs it from the top) leaves the same state.
    #[test]
    fn recover_allocator_is_idempotent() {
        let count = {
            let p = reclaim_pool(1 << 20);
            let a = p.palloc_lines(0, 1);
            p.pretire_lines(0, a, 1);
            p.palloc_drain(0);
            p.set_trace_enabled(true);
            let before = p.trace_event_total();
            p.palloc_lines(0, 1);
            p.trace_event_total() - before
        };
        for k in 0..count {
            let p = reclaim_pool(1 << 20);
            let a = p.palloc_lines(0, 1);
            p.pretire_lines(0, a, 1);
            p.palloc_drain(0);
            p.crash_ctl().arm_after(k);
            assert!(run_crashable(|| p.palloc_lines(0, 1)).is_none());
            p.crash(&mut PessimistAdversary);
            p.recover_allocator();
            let free_once = p.palloc_free_blocks();
            p.recover_allocator();
            assert_eq!(free_once, p.palloc_free_blocks());
            assert!(p.palloc_check().is_ok());
        }
    }
}
