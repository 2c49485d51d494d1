//! Per-thread bump sub-arenas: uncontended allocation for parallel runs.
//!
//! The pool's base allocator is a single bump cursor advanced by CAS
//! ([`PmemPool::try_alloc_lines`]). Under genuinely parallel load every
//! allocation — nodes *and* operation descriptors, several per attempt —
//! lands on that one cache line, so the cursor becomes the first scaling
//! bottleneck before any algorithmic cost shows up. A [`SubArena`] removes
//! it: each worker thread carves a private chunk of lines from the global
//! cursor (one CAS per chunk) and bump-allocates inside the chunk with
//! plain thread-local arithmetic. Allocation then contends on the global
//! cursor once every `chunk_lines` allocations instead of on every one.
//!
//! Installation is thread-local ([`install_thread_arena`]): while an arena
//! is installed, **every** allocation the thread performs against that
//! arena's pool — `alloc_lines`, `palloc_lines` bump fallbacks,
//! descriptor allocation inside the tracking algorithms — is served from
//! the private chunk, with no changes to algorithm code. Threads without
//! an installed arena (every existing harness and test) take the global
//! CAS path unchanged.
//!
//! ## Why per-thread cursors preserve the no-reuse/ABA argument
//!
//! The ABA-freedom of every CAS in this repository rests on one property
//! of the allocator: *a bump address is never issued twice* (see
//! [`PmemPool::try_alloc_lines`]). Sub-arenas keep that property by
//! construction — chunks are carved from the same monotone global cursor,
//! chunks never overlap, and a chunk's private cursor is itself monotone
//! — so partitioning the arena among threads changes *who* hands out an
//! address, never *how often*. The recoverable free-list classes
//! (`palloc`) stay per-thread as before and recycle only across epoch
//! quiescence; an arena only replaces the bump fallback underneath them.
//!
//! ## Lifecycle caveats
//!
//! An arena is a **volatile** accelerator: its cursor lives outside pmem.
//! Discard (uninstall and drop) any installed arena before
//! [`PmemPool::crash`] or [`PmemPool::restore`] — after either, lines the
//! arena still considers carved may be handed out again by a restored
//! global cursor. The parallel throughput harness, the only current user,
//! never crashes or restores while arenas are live.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use crate::addr::{PAddr, WORDS_PER_LINE};
use crate::pool::PmemPool;

/// Default chunk size, in cache lines, carved per global-cursor CAS.
pub const DEFAULT_CHUNK_LINES: usize = 4096;

/// A private bump allocator over a chunk of pool lines (see module docs).
///
/// Deliberately `!Sync` (interior `Cell`s): an arena belongs to exactly
/// one thread. Create it on the owning thread — or move it there — then
/// [`install_thread_arena`] it.
pub struct SubArena {
    pool: Arc<PmemPool>,
    chunk_lines: usize,
    /// Next free word inside the current chunk (0 = no chunk yet).
    next: Cell<usize>,
    /// First word past the current chunk.
    end: Cell<usize>,
    refills: Cell<u64>,
    waste_lines: Cell<usize>,
}

impl SubArena {
    /// Creates an arena over `pool` carving `chunk_lines` lines per refill
    /// (clamped to at least 1). No memory is carved until first use.
    pub fn new(pool: Arc<PmemPool>, chunk_lines: usize) -> SubArena {
        SubArena {
            pool,
            chunk_lines: chunk_lines.max(1),
            next: Cell::new(0),
            end: Cell::new(0),
            refills: Cell::new(0),
            waste_lines: Cell::new(0),
        }
    }

    /// The pool this arena carves from.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Allocates `nlines` zeroed, line-aligned cache lines from the private
    /// chunk, refilling from the pool's global cursor when the chunk runs
    /// out. Returns `None` only when the pool itself is exhausted.
    pub fn try_alloc_lines(&self, nlines: usize) -> Option<PAddr> {
        let need = nlines * WORDS_PER_LINE;
        let cur = self.next.get();
        if cur == 0 || cur + need > self.end.get() {
            self.refill(nlines)?;
        }
        let at = self.next.get();
        self.next.set(at + need);
        Some(PAddr(at as u64))
    }

    /// Carves a fresh chunk big enough for `nlines` from the global cursor.
    fn refill(&self, nlines: usize) -> Option<()> {
        let lines = self.chunk_lines.max(nlines);
        // The tail of the old chunk is abandoned, not freed: handing it
        // back would require a free list, and the point of an arena is to
        // avoid one. Tracked so reports can show the (tiny) loss.
        let left = self.end.get().saturating_sub(self.next.get());
        self.waste_lines
            .set(self.waste_lines.get() + left / WORDS_PER_LINE);
        let base = match self.pool.try_alloc_lines_global(lines) {
            Some(a) => a,
            // Chunk no longer fits: fall back to exactly the request.
            None => self.pool.try_alloc_lines_global(nlines)?,
        };
        self.refills.set(self.refills.get() + 1);
        self.next.set(base.word());
        self.end.set(base.word() + lines * WORDS_PER_LINE);
        Some(())
    }

    /// Number of global-cursor CASes performed (one per chunk refill).
    pub fn refills(&self) -> u64 {
        self.refills.get()
    }

    /// Lines abandoned at chunk tails (never handed out, never reused).
    pub fn waste_lines(&self) -> usize {
        self.waste_lines.get()
    }
}

thread_local! {
    static TL_ARENA: RefCell<Option<SubArena>> = const { RefCell::new(None) };
}

/// Installs `arena` as the calling thread's allocation arena, replacing
/// (and returning) any previous one. While installed, the thread's
/// allocations against the arena's pool bypass the global bump cursor.
pub fn install_thread_arena(arena: SubArena) -> Option<SubArena> {
    TL_ARENA.with(|slot| slot.borrow_mut().replace(arena))
}

/// Removes and returns the calling thread's installed arena, if any —
/// typically to read its [`SubArena::refills`] statistics after a run.
pub fn uninstall_thread_arena() -> Option<SubArena> {
    TL_ARENA.with(|slot| slot.borrow_mut().take())
}

/// Allocation hook called by [`PmemPool::try_alloc_lines`]: `None` when the
/// calling thread has no arena installed for `pool` (caller takes the
/// global path), `Some(result)` when the arena handled the request.
pub(crate) fn thread_arena_alloc(pool: &PmemPool, nlines: usize) -> Option<Option<PAddr>> {
    TL_ARENA.with(|slot| {
        let guard = slot.borrow();
        let arena = guard.as_ref()?;
        if !std::ptr::eq(Arc::as_ptr(&arena.pool), pool) {
            return None;
        }
        Some(arena.try_alloc_lines(nlines))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolCfg;

    fn pool() -> Arc<PmemPool> {
        Arc::new(PmemPool::new(PoolCfg::model(4 << 20)))
    }

    #[test]
    fn arena_bumps_within_one_carved_chunk() {
        let p = pool();
        let before = p.remaining_lines();
        let a = SubArena::new(p.clone(), 16);
        let x = a.try_alloc_lines(1).unwrap();
        let y = a.try_alloc_lines(2).unwrap();
        assert_eq!(y.word(), x.word() + WORDS_PER_LINE);
        assert_eq!(a.refills(), 1, "both fits in the first chunk");
        assert_eq!(before - p.remaining_lines(), 16, "one chunk carved");
    }

    #[test]
    fn arena_refills_and_serves_oversized_requests() {
        let p = pool();
        let a = SubArena::new(p.clone(), 4);
        for _ in 0..6 {
            a.try_alloc_lines(1).unwrap();
        }
        assert_eq!(a.refills(), 2);
        // A request bigger than the chunk gets a chunk of its own size.
        let big = a.try_alloc_lines(9).unwrap();
        assert!(!big.is_null());
        assert_eq!(a.refills(), 3);
        assert!(a.waste_lines() > 0, "abandoned tail of chunk two");
    }

    #[test]
    fn installed_arena_serves_pool_alloc_and_uninstalls() {
        let p = pool();
        install_thread_arena(SubArena::new(p.clone(), 8));
        let a = p.alloc_lines(1);
        let b = p.alloc_lines(1);
        assert_eq!(
            b.word(),
            a.word() + WORDS_PER_LINE,
            "private bump: adjacent"
        );
        let arena = uninstall_thread_arena().expect("was installed");
        assert_eq!(arena.refills(), 1);
        // After uninstall the global path serves again.
        let c = p.alloc_lines(1);
        assert!(c.word() >= arena.end.get(), "global cursor past the chunk");
        assert!(uninstall_thread_arena().is_none());
    }

    #[test]
    fn arena_for_another_pool_is_ignored() {
        let p1 = pool();
        let p2 = pool();
        install_thread_arena(SubArena::new(p1.clone(), 8));
        let before = p2.remaining_lines();
        let _ = p2.alloc_lines(1);
        assert_eq!(
            before - p2.remaining_lines(),
            1,
            "p2 must not be served from p1's arena"
        );
        let arena = uninstall_thread_arena().unwrap();
        assert_eq!(arena.refills(), 0);
    }

    #[test]
    fn distinct_thread_arenas_never_overlap() {
        let p = pool();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                install_thread_arena(SubArena::new(p.clone(), 8));
                let mine: Vec<usize> = (0..64).map(|_| p.alloc_lines(1).word()).collect();
                uninstall_thread_arena();
                mine
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "an address was issued twice");
    }
}
