//! Harris' lock-free ordered linked list — the base algorithm the capsules
//! transformation is applied to (Harris, DISC '01).
//!
//! Nodes are `⟨key, next⟩`; deletion is two-step: a CAS sets the **mark
//! bit** (bit 0 of the `next` field) to logically delete the node, and a
//! second CAS physically unlinks it — performed by the deleter or by any
//! later traversal that trips over a marked node. All `next` values carry
//! the [`crate::rcas`] stamp in their high bits; this module's search is
//! shared by the plain (volatile) list used in tests and by the persistent
//! capsule operations, which inject their persistence policy through
//! [`SearchPersist`].

use pmem::{PAddr, PmemPool};

use crate::rcas::{core, stamped, NO_TID};
use crate::sites::{C_MARKED, C_NEIGHBORHOOD, C_TRAVERSE};

/// Sentinel key of `head`.
pub const KEY_MIN: u64 = 0;
/// Sentinel key of `tail`.
pub const KEY_MAX: u64 = u64::MAX;

// Node layout (one cache line): w0 = key, w1 = next (stamped + marked).
pub(crate) const N_KEY: u64 = 0;
pub(crate) const N_NEXT: u64 = 1;

/// Is the mark (logical-delete) bit set on this `next` value?
#[inline]
pub fn is_marked(next: u64) -> bool {
    next & 1 == 1
}

/// The node address part of a `next` value (stamp and mark stripped).
#[inline]
pub fn addr_of(next: u64) -> PAddr {
    PAddr(core(next) & !1)
}

/// How a search persists what it reads — the knob distinguishing
/// Capsules (flush everything) from Capsules-Opt (flush marked nodes and
/// the target neighborhood only) from the volatile base list (flush
/// nothing).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SearchPersist {
    /// No persistence (the original volatile algorithm).
    None,
    /// `pwb; pfence` after every shared read (Izraelevitz durability
    /// transformation — the paper's Capsules).
    Full,
    /// Persist marked nodes as encountered plus `pred`/`curr` at the end
    /// (the paper's hand-tuned Capsules-Opt).
    Opt,
}

/// Result of a Harris search: `pred` (unmarked, key < k) and `curr`
/// (unmarked at observation time, first key ≥ k), plus the exact `next`
/// values read from them (stamped), needed as CAS expectations.
pub struct HarrisSearch {
    /// Last node with key < k.
    pub pred: PAddr,
    /// `pred`'s observed `next` value (stamped pointer to `curr`).
    pub pred_next: u64,
    /// First node with key ≥ k.
    pub curr: PAddr,
    /// `curr`'s observed `next` value (stamped, unmarked).
    pub curr_next: u64,
}

/// Allocates a node under thread `tid`'s identity (recycling a retired
/// node on a `pmem::PoolCfg::reclaim` pool). The `next` field is stamped
/// with [`NO_TID`] so the first notification on it is a no-op.
pub fn mk_node(pool: &PmemPool, tid: usize, key: u64, next_core: u64) -> PAddr {
    let n = pool.palloc_lines(tid, 1);
    pool.store(n.add(N_KEY), key);
    pool.store(n.add(N_NEXT), stamped(next_core, NO_TID, 0));
    n
}

/// Creates the sentinel pair and returns `head`.
pub fn mk_list(pool: &PmemPool) -> PAddr {
    let tail = mk_node(pool, 0, KEY_MAX, 0);
    mk_node(pool, 0, KEY_MIN, tail.raw())
}

/// Harris' search with physical unlinking of marked nodes.
///
/// Returns `(pred, curr)` with `pred.key < key <= curr.key` and both
/// unmarked at observation time. Marked nodes between them are unlinked
/// with a (plain, non-recoverable) CAS — cleanup does not need crash
/// detection, any thread may redo it. On a `pmem::PoolCfg::reclaim` pool a
/// persisting search also *retires* each node it unlinks (to `tid`'s limbo
/// list), after flushing the unlink so a crash cannot leave the node
/// reachable from both the chain and the allocator: the unlink CAS is the
/// unique remover, so exactly one thread retires each node. Volatile
/// searches (`SearchPersist::None`) never retire — without the flush the
/// persisted image could still link the node.
pub fn search(
    pool: &PmemPool,
    tid: usize,
    head: PAddr,
    key: u64,
    persist: SearchPersist,
) -> HarrisSearch {
    'retry: loop {
        let mut pred = head;
        let mut pred_next = pool.load(pred.add(N_NEXT));
        if persist == SearchPersist::Full {
            pool.pwb(pred.add(N_NEXT), C_TRAVERSE);
            pool.pfence();
        }
        let mut curr = addr_of(pred_next);
        loop {
            let mut curr_next = pool.load(curr.add(N_NEXT));
            if persist == SearchPersist::Full {
                pool.pwb(curr.add(N_NEXT), C_TRAVERSE);
                pool.pfence();
            }
            // Unlink any run of marked nodes following curr.
            while is_marked(curr_next) {
                if persist == SearchPersist::Opt {
                    // A logically deleted node must be durable before its
                    // deletion can influence any response (see paper §5).
                    pool.pwb(curr.add(N_NEXT), C_MARKED);
                    pool.pfence();
                }
                let succ_core = core(curr_next) & !1;
                // Plain CAS: unlinking is idempotent cleanup. The new value
                // keeps pred_next's stamp semantics simple by reusing the
                // observed successor core with a fresh NO_TID stamp.
                let unlinked = stamped(succ_core, NO_TID, 0);
                if pool.cas(pred.add(N_NEXT), pred_next, unlinked).is_err() {
                    continue 'retry; // pred changed under us
                }
                if persist != SearchPersist::None {
                    pool.pwb(pred.add(N_NEXT), C_TRAVERSE);
                    pool.pfence();
                    // The unlink is durable and this CAS was its unique
                    // remover: retire the node (no-op on a bump pool).
                    // In-flight traversals standing on it still read its
                    // key/next words, which retirement leaves intact.
                    pool.pretire_lines(tid, curr, 1);
                }
                pred_next = unlinked;
                curr = PAddr(succ_core);
                curr_next = pool.load(curr.add(N_NEXT));
                if persist == SearchPersist::Full {
                    pool.pwb(curr.add(N_NEXT), C_TRAVERSE);
                    pool.pfence();
                }
            }
            let curr_key = pool.load(curr.add(N_KEY));
            if persist == SearchPersist::Full {
                pool.pwb(curr.add(N_KEY), C_TRAVERSE);
                pool.pfence();
            }
            if curr_key >= key {
                if persist == SearchPersist::Opt {
                    // Neighborhood of the target node (paper §5).
                    pool.pwb(pred.add(N_NEXT), C_NEIGHBORHOOD);
                    pool.pwb(curr.add(N_NEXT), C_NEIGHBORHOOD);
                    pool.pfence();
                }
                return HarrisSearch {
                    pred,
                    pred_next,
                    curr,
                    curr_next,
                };
            }
            pred = curr;
            pred_next = curr_next;
            curr = addr_of(curr_next);
        }
    }
}

/// Quiescent traversal of the live (unmarked) user keys.
pub fn keys(pool: &PmemPool, head: PAddr) -> Vec<u64> {
    let mut out = Vec::new();
    let mut next = pool.load(head.add(N_NEXT));
    loop {
        let nd = addr_of(next);
        let k = pool.load(nd.add(N_KEY));
        if k == KEY_MAX {
            return out;
        }
        next = pool.load(nd.add(N_NEXT));
        if !is_marked(next) {
            out.push(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PmemPool, PoolCfg};

    #[test]
    fn empty_list_search_hits_tail() {
        let p = PmemPool::new(PoolCfg::model(1 << 20));
        let head = mk_list(&p);
        let s = search(&p, 0, head, 10, SearchPersist::None);
        assert_eq!(s.pred, head);
        assert_eq!(p.load(s.curr.add(N_KEY)), KEY_MAX);
        assert!(keys(&p, head).is_empty());
    }

    #[test]
    fn search_persist_full_counts_traversal_flushes() {
        let p = PmemPool::new(PoolCfg::model(1 << 20));
        let head = mk_list(&p);
        p.stats_reset();
        search(&p, 0, head, 10, SearchPersist::Full);
        assert!(p.stats().pwb_at(C_TRAVERSE) >= 2, "every read flushed");
        p.stats_reset();
        search(&p, 0, head, 10, SearchPersist::None);
        assert_eq!(p.stats().pwb_total(), 0);
    }

    #[test]
    fn marked_nodes_are_unlinked_by_search() {
        let p = PmemPool::new(PoolCfg::model(1 << 20));
        let head = mk_list(&p);
        // hand-build head -> a -> tail, then mark a
        let s = search(&p, 0, head, 5, SearchPersist::None);
        let a = mk_node(&p, 0, 5, core(s.pred_next));
        let a_stamped = stamped(a.raw(), 1, 1);
        assert!(p.cas(head.add(N_NEXT), s.pred_next, a_stamped).is_ok());
        let a_next = p.load(a.add(N_NEXT));
        assert!(p.cas(a.add(N_NEXT), a_next, a_next | 1).is_ok()); // mark
        assert!(keys(&p, head).is_empty(), "marked key is logically gone");
        let s2 = search(&p, 0, head, 5, SearchPersist::None);
        assert_eq!(p.load(s2.curr.add(N_KEY)), KEY_MAX, "a unlinked");
        assert_eq!(
            addr_of(p.load(head.add(N_NEXT))),
            s2.curr,
            "physically unlinked"
        );
    }

    #[test]
    fn mark_and_addr_helpers() {
        let v = stamped(0x1230 | 1, 4, 2);
        assert!(is_marked(v));
        assert_eq!(addr_of(v), PAddr(0x1230));
    }
}
